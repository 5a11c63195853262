"""Family laws by base change from the universal law over Z[A, B], against
the chord construction (elliptic.formal_group_of_curve) it replaces."""

import random
from fractions import Fraction

import pytest

from chromalg import elliptic, fgl
from chromalg.checks import REGISTRY
from chromalg.poly import PolyRing
from chromalg.report import RunConfig
from chromalg.rings import GF, ModularIntegers, PrimeField, QQ, omega_ring
from chromalg.series import SeriesRing


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


@pytest.mark.parametrize("order", [(9, 6), (6, 9), (6, 7)])
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


UNIVERSAL_CHECKS = ("ell.formal-group-family", "fgl.hazewinkel-family", "fgl.tate-v2-zero",
                    "fgl.hazewinkel-naturality", "fgl.validation-random")


def test_universal_law_checks_read_the_memo(cold_memo, monkeypatch):
    calls = count_chord_calls(monkeypatch)
    cfg = RunConfig()
    fgl.universal_family_law(cfg.series_prec)
    checks = {c.id: c for c in REGISTRY}
    for cid in UNIVERSAL_CHECKS:
        checks[cid].fn(cfg, random.Random(0))
    assert calls == [cfg.series_prec]

