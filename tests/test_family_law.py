"""Family laws by base change from the universal law over Z[A, B], built on
the A = 1 chart and rehomogenised, against the chord construction
(elliptic.formal_group_of_curve) over Z[A, B] and over each target ring."""

import random
from fractions import Fraction

import pytest

from chromalg import elliptic, fgl
from chromalg.checks import REGISTRY, CheckFailure
from chromalg.errors import AlgebraError
from chromalg.poly import PolyRing
from chromalg.report import RunConfig
from chromalg.rings import GF, ModularIntegers, PrimeField, QQ, omega_ring
from chromalg.series import Series, SeriesCtx, SeriesRing


def chord(ring, a, b, N):
    E = elliptic.gamma1_3_curve(ring, a, b)
    return elliptic.formal_group_of_curve(E, N).rename(("x", "y"))


def assert_same_law(F, G):
    """Equal term for term, at the same precision and in the same variables."""
    assert F.ctx.vars == G.ctx.vars and F.prec == G.prec
    assert set(F.terms) == set(G.terms)
    R = F.ctx.ring
    assert all(R.eq(c, G.terms[e]) for e, c in F.terms.items())


@pytest.fixture
def cold_memo(monkeypatch):
    """An empty universal-law memo, restored after the test."""
    monkeypatch.setattr(fgl, "_universal_law", None)


def random_series(R, rng, lo=-5, hi=5):
    base = R.base
    return R.ctx.series({(m,): base.from_int(rng.randint(lo, hi)) for m in range(R.prec)})


@pytest.mark.parametrize("q", [2, 4, 8])
def test_family_law_matches_chord_on_every_finite_fiber(q):
    F = GF(q)
    for a in F.elements():
        for b in F.elements():
            assert_same_law(fgl.family_law(F, a, b, 5), chord(F, a, b, 5))


@pytest.mark.parametrize("k", [1, 3, 4])
def test_family_law_matches_chord_over_z_mod_2k_b(k):
    R = SeriesRing(ModularIntegers(2 ** k), "b", 6)
    b = R.gen()
    rng = random.Random(1000 + k)
    for B in (b, R.mul(b, b), random_series(R, rng)):
        assert_same_law(fgl.family_law(R, R.one(), B, 7), chord(R, R.one(), B, 7))
    A, B = random_series(R, rng), random_series(R, rng)
    assert_same_law(fgl.family_law(R, A, B, 7), chord(R, A, B, 7))


def test_family_law_matches_chord_over_q_b():
    R = SeriesRing(QQ, "b", 5)
    rng = random.Random(7)
    A = R.ctx.series({(m,): Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for m in range(5)})
    for a, b in ((R.one(), R.gen()), (A, R.gen()), (R.one(), A)):
        assert_same_law(fgl.family_law(R, a, b, 6), chord(R, a, b, 6))


def test_family_law_matches_chord_over_omega_ring():
    W = omega_ring()
    rng = random.Random(11)
    w = W.gen()
    for _ in range(3):
        a, b = (W.add(W.from_int(rng.randint(-3, 3)), W.scale_int(w, rng.randint(-3, 3)))
                for _ in range(2))
        assert_same_law(fgl.family_law(W, a, b, 6), chord(W, a, b, 6))


def test_family_law_matches_chord_over_f2_s():
    P = PolyRing(PrimeField(2), ("s",))
    assert_same_law(fgl.family_law(P, P.one(), P.gen("s"), 9),
                    chord(P, P.one(), P.gen("s"), 9))


@pytest.mark.parametrize("N", range(1, 14))
def test_universal_law_matches_the_chord_over_z_a_b(cold_memo, N):
    """The rehomogenised chart law equals the chord over Z[A, B] at every N
    through 13, past each degree where a new power of B first appears
    (B^k at N = 3k + 1)."""
    E, _ = elliptic.universal_gamma1_3()
    assert_same_law(fgl.universal_family_law(N), chord(E.ring, E.a1, E.a3, N))


@pytest.mark.parametrize("N", [4, 7, 10, 13])
def test_family_law_matches_chord_over_q_off_the_chart(N):
    """Read from the chart integers with a != 1: each b^k goes to
    a^(i + j - 1 - 3k) b^k."""
    for a, b in ((Fraction(-2, 3), Fraction(5, 7)), (Fraction(3), Fraction(-1, 2))):
        assert_same_law(fgl.family_law(QQ, a, b, N), chord(QQ, a, b, N))


def test_rehomogenisation_rejects_a_b_power_above_the_weight(cold_memo, monkeypatch):
    """Guard: b^k at x^i y^j with 3k > i + j - 1 has no weight-homogeneous
    lift, and both readers of the chart raise."""
    fgl.universal_family_law(6)
    U = fgl._universal_law
    S = U.ctx.ring
    terms = dict(U.terms)
    terms[(1, 1)] = S.add(terms[(1, 1)], S.gen())
    monkeypatch.setattr(fgl, "_universal_law", Series(U.ctx, terms))
    with pytest.raises(AlgebraError, match="above weight"):
        fgl.universal_family_law(6)
    with pytest.raises(AlgebraError, match="above weight"):
        fgl.family_law(QQ, QQ.one(), QQ.one(), 6)


@pytest.mark.parametrize("order", [(9, 6), (6, 9), (6, 7), (12, 13), (13, 12)])
def test_memo_truncation_equals_a_fresh_chord_build(cold_memo, order):
    E, _ = elliptic.universal_gamma1_3()
    for N in order:
        assert_same_law(fgl.universal_family_law(N), chord(E.ring, E.a1, E.a3, N))
    small, large = sorted(order)
    assert fgl._universal_law.prec == large + 1
    assert_same_law(fgl.universal_family_law(small), chord(E.ring, E.a1, E.a3, small))


def test_memo_returns_a_fresh_terms_dict(cold_memo):
    U = fgl.universal_family_law(6)
    U.terms.clear()
    assert fgl.universal_family_law(6).terms


def count_chord_calls(monkeypatch):
    calls = []
    chord_fn = fgl.formal_group_of_curve

    def counted(E, N):
        calls.append(N)
        return chord_fn(E, N)

    monkeypatch.setattr(fgl, "formal_group_of_curve", counted)
    return calls


def test_family_constructors_skip_the_chord_once_the_memo_is_warm(cold_memo, monkeypatch):
    calls = count_chord_calls(monkeypatch)
    fgl.universal_family_law(10)
    assert calls == [10]
    F = fgl.two_adic_family_fgl(2, 5, 8)
    R = SeriesRing(PrimeField(2), "b", 5)
    G = fgl.family_fgl_at(R, R.mul(R.gen(), R.gen()), 9)
    fgl._family_b_direction(R, R.mul(R.gen(), R.gen()), 10)
    assert calls == [10]
    # a larger request rebuilds once, and the laws still match the chord
    fgl.two_adic_family_fgl(1, 4, 11)
    assert calls == [10, 11]
    Rk = F.ring
    assert_same_law(F.F, chord(Rk, Rk.one(), Rk.gen(), 8))
    assert_same_law(G.F, chord(R, R.one(), R.mul(R.gen(), R.gen()), 9))


UNIVERSAL_CHECKS = ("fgl.hazewinkel-family", "fgl.tate-v2-zero",
                    "fgl.hazewinkel-naturality", "fgl.validation-random")


def test_universal_law_checks_read_the_memo(cold_memo, monkeypatch):
    calls = count_chord_calls(monkeypatch)
    cfg = RunConfig()
    fgl.universal_family_law(cfg.series_prec)
    checks = {c.id: c for c in REGISTRY}
    for cid in UNIVERSAL_CHECKS:
        checks[cid].fn(cfg, random.Random(0))
    assert calls == [cfg.series_prec]


@pytest.mark.parametrize("series_prec, N", [(12, 6), (20, 9)])
def test_formal_group_family_runs_its_own_chord(cold_memo, monkeypatch, series_prec, N):
    """ell.formal-group-family reads the memo and runs exactly one chord, at
    its own N, as the independent side."""
    cfg = RunConfig(series_prec=series_prec)
    fgl.universal_family_law(cfg.series_prec)
    calls = count_chord_calls(monkeypatch)
    next(c for c in REGISTRY if c.id == "ell.formal-group-family").fn(cfg, random.Random(0))
    assert calls == [N]


def _conjugated(U: Series) -> Series:
    """phi^-1(U(phi x, phi y)) for phi(x) = x + b x^4: a law on the chart,
    unital, commutative, associative and of weight-homogeneous lift, but
    not the family's."""
    S, prec = U.ctx.ring, U.prec
    x = SeriesCtx(S, ("x",), prec).gen("x")
    phi = x + (x ** 4).scale(S.gen())
    X, Y = U.ctx.gen("x"), U.ctx.gen("y")
    moved = U.compose({"x": phi.compose({"x": X}), "y": phi.compose({"x": Y})})
    return phi.reverse().compose({"x": moved})


def _plus_b_at(U: Series, e: tuple) -> Series:
    """The chart law U with b added to its coefficient at e."""
    S, terms = U.ctx.ring, dict(U.terms)
    terms[e] = S.add(terms.get(e, S.zero()), S.gen())
    return Series(U.ctx, terms)


@pytest.mark.parametrize("perturb, error, match", [
    (lambda U: _plus_b_at(U, (2, 2)), AlgebraError, "associativity fails"),
    (_conjugated, CheckFailure, "differs from the chord"),
])
def test_formal_group_family_fails_on_a_perturbed_memo(cold_memo, monkeypatch, perturb, error, match):
    """Negative controls: a perturbed chart law in the memo makes
    ell.formal-group-family fail.  The conjugated law passes the law axioms
    and rehomogenises to a weight-homogeneous law, so only the comparison
    with the chord over Z[A, B] sees it."""
    cfg = RunConfig()
    check = next(c for c in REGISTRY if c.id == "ell.formal-group-family")
    check.fn(cfg, random.Random(0))
    monkeypatch.setattr(fgl, "_universal_law", perturb(fgl._universal_law))
    with pytest.raises(error, match=match):
        check.fn(cfg, random.Random(0))
