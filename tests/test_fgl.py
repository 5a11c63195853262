import dataclasses
import itertools
import json
import random
import re
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromalg import bp, elliptic, fgl, linalg
from chromalg.checks import REGISTRY, CheckFailure, _noniso_degrees
from chromalg.errors import (AlgebraError, HeightExceedsPrecision, IntegralityFailure,
                             InvalidKernel, NeedsTorsionFree, NotAFrobeniusLift, NotInvertible,
                             NotOrdinary, QuotientPrecisionError, RecognitionFailed,
                             TruncationError)
from chromalg.poly import Poly, PolyRing
from chromalg.rings import (GF, ModularIntegers, PrimeField, QQ, Z_inverted,
                            ZZ, omega_ring, sqrt_minus3)
from chromalg.report import RunConfig, run_checks
from chromalg.series import Series, SeriesCtx, SeriesRing

import oracles
from oracles import law_from_log_oracle, quotient_lift_oracle


def test_conic_examples():
    F = fgl.conic_fgl(ZZ, 3, 3, 6)
    assert F.coefficient(1, 1) == 3
    assert F.coefficient(2, 1) == 3 and F.coefficient(1, 2) == 3
    assert fgl.conic_discriminant(ZZ, 3, 3) == -3
    assert fgl.additive_fgl(ZZ, 6).F == \
        fgl.additive_fgl(ZZ, 6).ctx.gen("x") + fgl.additive_fgl(ZZ, 6).ctx.gen("y")
    P = PolyRing(ZZ, ("a",))
    a = P.gen("a")
    M = fgl.conic_fgl(P, P.one() - a, -a, 6)
    assert M.coefficient(1, 1) == P.one() - a


def _conic_rings():
    """(ring, b values) pairs over Z, Q, Z[1/3], Z/8, GF(4), Z[omega] and Z[a]."""
    W, P = omega_ring(), PolyRing(ZZ, ("a",))
    F4 = GF(4)
    return [(ZZ, [0, 1, -3, 5]), (QQ, [Fraction(0), Fraction(-2, 3), Fraction(7)]),
            (Z_inverted(3), [Fraction(1, 3), Fraction(-9), Fraction(2)]),
            (ModularIntegers(8), [0, 1, 4, 7]), (F4, [F4.zero(), F4.one(), F4.gen()]),
            (W, [W.zero(), W.one(), sqrt_minus3(W)]), (P, [P.zero(), P.one() - P.gen("a")])]


def test_a_conic_without_c_matches_its_quotient_form():
    """With c = 0 the law x + y + b xy equals, term for term and type for
    type, (x + y + b xy)/(1 - 0 xy) by Newton inversion, in every carrier;
    so does the additive law, conic (0, 0)."""
    for R, bs in _conic_rings():
        for b in bs:
            for N in (1, 4, 7):
                ctx = SeriesCtx(R, ("x", "y"), N + 1)
                x, y = ctx.gen("x"), ctx.gen("y")
                want = (x + y + (x * y).scale(b)) * (ctx.one() - (x * y).scale(R.zero())).inverse()
                assert _typed(fgl.multiplicative_fgl(R, b, N).F) == _typed(want), (R, b, N)
            assert _typed(fgl.additive_fgl(R, 6).F) == _typed(fgl.conic_fgl(R, R.zero(),
                                                                            R.zero(), 6).F)


def test_only_a_conic_with_c_inverts_its_denominator(monkeypatch):
    """x + y + b xy is built without Series.inverse; a nonzero c inverts
    1 - c xy once."""
    calls = []
    real = Series.inverse

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Series, "inverse", counted)
    for R, bs in _conic_rings():
        for b in bs:
            fgl.multiplicative_fgl(R, b, 7)
        fgl.additive_fgl(R, 7)
    assert calls == []
    fgl.conic_fgl(ZZ, 3, 3, 7)
    assert len(calls) == 1


def test_m_series_and_heights():
    two = fgl.m_series(fgl.multiplicative_fgl(ZZ, 1, 8), 2)
    assert [two.ucoeff(i) for i in range(4)] == [0, 2, 1, 0]
    assert fgl.height_mod_p(fgl.multiplicative_fgl(GF(2), 1, 8), 2) == 1
    F4 = GF(4)
    C = elliptic.curve(F4, F4.zero(), F4.zero(), F4.one(), F4.zero(), F4.zero())
    assert fgl.height_mod_p(fgl.fgl_from_curve(C, 6), 2) == 2
    P2 = PolyRing(PrimeField(2), ("b",))
    Ef = elliptic.gamma1_3_curve(P2, P2.one(), P2.gen("b"))
    assert fgl.height_mod_p(fgl.fgl_from_curve(Ef, 6), 2) == 1
    with pytest.raises(HeightExceedsPrecision):
        fgl.height_mod_p(fgl.additive_fgl(GF(2), 6), 2)


def test_log_examples():
    assert fgl.fgl_log(fgl.additive_fgl(QQ, 6)) == \
        SeriesCtx(QQ, ("x",), 7).gen("x").truncate(6)
    l = fgl.fgl_log(fgl.conic_fgl(QQ, -1, 0, 6))
    assert [l.ucoeff(i) for i in range(1, 5)] == \
        [1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]
    P = PolyRing(QQ, ("u",))
    u = P.gen("u")
    lu = fgl.fgl_log(fgl.conic_fgl(P, u, P.zero(), 6))
    assert lu.ucoeff(2) == u * Fraction(-1, 2)
    assert lu.ucoeff(3) == (u * u) * Fraction(1, 3)


def test_log_needs_torsion_free():
    with pytest.raises(NeedsTorsionFree):
        fgl.fgl_log(fgl.multiplicative_fgl(GF(2), 1, 6))


def test_log_exp_roundtrip():
    F = fgl.conic_fgl(QQ, -1, 0, 8)
    l, e = fgl.fgl_log(F), fgl.fgl_exp(F)
    assert l.compose({"x": e.rename(("x",))}) == SeriesCtx(QQ, ("x",), 8).gen("x")


CURVES_OVER_Z_AND_Q = {
    "universal": lambda: elliptic.universal_gamma1_3()[0],
    "tate over Z": lambda: elliptic.gamma1_3_curve(ZZ, 1, 0),
    "all a_i nonzero over Q": lambda: elliptic.curve(
        QQ, Fraction(1), Fraction(-2), Fraction(3, 2), Fraction(5), Fraction(-7, 3)),
}


@pytest.mark.parametrize("N", [4, 8])
@pytest.mark.parametrize("make", CURVES_OVER_Z_AND_Q.values(), ids=CURVES_OVER_Z_AND_Q.keys())
def test_law_log_is_the_curve_log(make, N):
    """The logarithm read from a curve's chord law, 1/(dF/dy)(x, 0)
    integrated, is the curve's invariant-differential logarithm over the
    rationalized ring: the same values of the same types, in x for z."""
    E = make()
    Qring, lift = E.ring.rationalize()
    want = elliptic.curve_log(E.map_coefficients(lift, Qring), N).truncate(N + 1)
    got = fgl.fgl_log(fgl.fgl_from_curve(E, N), N)
    assert _typed(got) == _typed(want.rename(("x",)))
    with pytest.raises(TruncationError):
        fgl.fgl_log(fgl.fgl_from_curve(E, N), N + 1)


def test_hazewinkel_family_check_reads_the_law_log(monkeypatch):
    """Negative control: one added to the x^4 coefficient of the law's
    logarithm makes fgl.hazewinkel-family fail at v2."""
    check = next(c for c in REGISTRY if c.id == "fgl.hazewinkel-family")
    log = fgl.fgl_log

    def perturbed(F, N=None):
        ell = log(F, N)
        R = ell.ctx.ring
        return ell + ell.ctx.series({(4,): R.one()})

    check.fn(RunConfig(), random.Random(0))
    monkeypatch.setattr(fgl, "fgl_log", perturbed)
    with pytest.raises(CheckFailure, match=r"v2 = 2 \+ B != B"):
        check.fn(RunConfig(), random.Random(0))


def test_hazewinkel_family_exact():
    E, P = elliptic.universal_gamma1_3()
    F = fgl.fgl_from_curve(E, 9)
    data = fgl.hazewinkel_generators(F, 2, 2)
    assert data.v[0] == P.gen("A")
    assert data.v[1] == P.gen("B")


def test_hazewinkel_multiplicative():
    P = PolyRing(ZZ, ("u",))
    u = P.gen("u")
    d = fgl.hazewinkel_generators(fgl.conic_fgl(P, -u, P.zero(), 10), 2, 2)
    assert d.v[0] == u and d.v[1].is_zero()
    d2 = fgl.hazewinkel_generators(fgl.conic_fgl(P, u, P.zero(), 10), 2, 2)
    assert d2.v[0] == -u and d2.v[1].is_zero()


def test_hazewinkel_tate_specialization():
    E, P = elliptic.universal_gamma1_3()
    F = fgl.fgl_from_curve(E, 9)
    data = fgl.hazewinkel_generators(F, 2, 2)
    Pb = PolyRing(ZZ, ("beta",))
    sub = {"__ring__": Pb, "A": Pb.gen("beta"), "B": Pb.zero(),
           "__coeff__": lambda c: Pb.from_int(int(c))}
    assert data.v[1].substitute(sub).is_zero()
    assert data.v[0].substitute(sub) == Pb.gen("beta")


def _conic_u(N):
    P = PolyRing(ZZ, ("u",))
    return fgl.conic_fgl(P, -P.gen("u"), P.zero(), N)


@pytest.mark.parametrize("law", [_conic_u, fgl.universal_family_fgl],
                         ids=["conic", "family"])
def test_hazewinkel_precision_guard(law):
    # hazewinkel_generators(F, p, n) needs F.prec >= p^n + 1, as fgl_log(F, p^n) does
    with pytest.raises(TruncationError):
        fgl.hazewinkel_generators(law(2 ** 2 - 1), 2, 2)    # prec p^n
    data = fgl.hazewinkel_generators(law(2 ** 2), 2, 2)      # prec p^n + 1
    assert data.v == fgl.hazewinkel_generators(law(9), 2, 2).v


@pytest.mark.parametrize("law, p, n", [(fgl.universal_family_fgl, 2, 1),
                                       (fgl.universal_family_fgl, 3, 1),
                                       (fgl.universal_family_fgl, 2, 2),
                                       (fgl.universal_family_fgl, 2, 3),
                                       (_conic_u, 2, 2)])
def test_hazewinkel_at_the_guard_matches_higher_precision(law, p, n):
    """The x^(p^n) log coefficient reads only the x^i y terms of the law with
    i < p^n, so v at precision p^n + 1 is v at precision p^n + 5."""
    assert law(p ** n).prec == p ** n + 1
    assert (fgl.hazewinkel_generators(law(p ** n), p, n).v
            == fgl.hazewinkel_generators(law(p ** n + 4), p, n).v)


@pytest.mark.parametrize("law, p, n", [(fgl.universal_family_fgl, 2, 1),
                                       (fgl.universal_family_fgl, 3, 1),
                                       (fgl.universal_family_fgl, 2, 2),
                                       (fgl.universal_family_fgl, 2, 3),
                                       (_conic_u, 2, 2), (_conic_u, 3, 2)])
def test_hazewinkel_matches_its_own_recursion(law, p, n):
    """v through the Hazewinkel solve that `bp.right_unit` shares equals the
    recursion written out over the rationalized ring."""
    F = law(p ** n + 2)
    assert fgl.hazewinkel_generators(F, p, n).v == oracles.hazewinkel_v_oracle(F, p, n)


def test_hazewinkel_naturality_under_strict_isos():
    E, P = elliptic.universal_gamma1_3()
    A, B = P.gen("A"), P.gen("B")
    F = fgl.fgl_from_curve(E, 9)
    ctx1 = SeriesCtx(P, ("t",), 9)
    phi = ctx1.series({(1,): P.one(), (2,): A, (3,): A * A, (4,): (-2) * (A ** 3)})
    G = fgl.strict_apply(F, phi)
    data = fgl.hazewinkel_generators(G, 2, 2)
    assert data.v[0] == -A                       # hand-checked conjugate value
    assert data.v[1] == B + 6 * (A ** 3)
    assert bp.reduce_poly_modulo(data.v[0], 2) == bp.reduce_poly_modulo(A, 2)
    assert bp.reduce_poly_modulo(data.v[1], 2, kill_gens=("A",)) == \
        bp.reduce_poly_modulo(B, 2, kill_gens=("A",))


def test_find_iso_identity_and_omega():
    W = omega_ring()
    Fc = fgl.conic_fgl(W, W.from_int(3), W.from_int(3), 13)
    same = fgl.find_iso(Fc, Fc, "strict", N=8)
    assert isinstance(same, fgl.IsoResult)
    assert same.phi == SeriesCtx(W, ("t",), 13).gen("t").truncate(9)
    Fm = fgl.conic_fgl(W, sqrt_minus3(W), W.zero(), 13)
    res = fgl.find_iso(Fc, Fm, "strict", N=12)
    assert isinstance(res, fgl.IsoResult)
    back = fgl.find_iso(Fm, Fc, "strict", N=12)
    comp = back.phi.compose({"t": res.phi})
    assert comp == SeriesCtx(W, ("t",), 13).gen("t")


def test_find_iso_obstruction_over_z13():
    Z13 = Z_inverted(3)
    Fc = fgl.conic_fgl(Z13, Fraction(3), Fraction(3), 7)
    cands = Z13.unit_candidates(2)
    for u in cands:
        r = fgl.find_iso(Fc, fgl.conic_fgl(Z13, u, Fraction(0), 7),
                         "linear-unit", N=6, unit_candidates=cands)
        assert isinstance(r, fgl.Obstruction)
        assert r.degree <= 4
        assert r.proof


def test_find_iso_refuses_a_misspelled_mode():
    """Negative control: a mode other than "strict" or "linear-unit" is a
    usage error, not a linear-unit search."""
    Z13 = Z_inverted(3)
    Fc = fgl.conic_fgl(Z13, Fraction(3), Fraction(3), 7)
    F1 = fgl.conic_fgl(Z13, Fraction(1), Fraction(0), 7)
    assert isinstance(fgl.find_iso(Fc, F1, "linear-unit", N=6, unit_candidates=[1]),
                      fgl.Obstruction)
    with pytest.raises(ValueError, match="'strcit' is neither"):
        fgl.find_iso(Fc, F1, "strcit", N=6, unit_candidates=[1])


def test_find_iso_refuses_unit_candidates_in_strict_mode():
    """Negative control: a strict search fixes phi'(0) = 1, so candidates
    passed to it are refused rather than ignored."""
    F = fgl.multiplicative_fgl(QQ, QQ.one(), 5)
    assert isinstance(fgl.find_iso(F, F, "strict", N=4), fgl.IsoResult)
    with pytest.raises(ValueError, match="unit_candidates"):
        fgl.find_iso(F, F, "strict", N=4, unit_candidates=[QQ.one()])


@pytest.mark.parametrize("R,source,target,degree,proof", [
    (ModularIntegers(8), (1, 0), (1, 1), 4, False),
    (ModularIntegers(8), (0, 0), (1, 0), 2, True),
    (PrimeField(2), (1, 1), (1, 0), 4, False),
    (PrimeField(2), (0, 0), (1, 0), 2, True),
    (PrimeField(3), (1, 1), (1, 0), 3, True),
    (Z_inverted(3), (3, 3), (3, 0), 4, True)])
def test_an_obstruction_is_a_proof_only_without_an_earlier_choice(R, source, target,
                                                                  degree, proof):
    """Between conic laws (b, c) -> (x + y + b xy)/(1 - c xy): over Z/8 and
    F_2 the degree-2 row is 2 c_2 = T, which has two solutions when it has
    one, so a failure at degree 4 is no proof, and a failure at degree 2 is
    one.  Over F_3 the rows before degree 3 have unit gcds, and Z[1/3] has
    no torsion.  The oracle agrees."""
    F = fgl.conic_fgl(R, R.from_int(source[0]), R.from_int(source[1]), 9)
    G = fgl.conic_fgl(R, R.from_int(target[0]), R.from_int(target[1]), 9)
    res = fgl.find_iso(F, G, "strict", N=8)
    assert isinstance(res, fgl.Obstruction)
    assert (res.degree, res.proof) == (degree, proof)
    ref = oracles.find_iso_oracle(F, G, "strict", N=8)
    assert (ref.degree, ref.details, ref.proof) == (res.degree, res.details, res.proof)


def test_find_iso_over_z4_b_finds_every_strict_twist():
    """Over Z/4[[b]] a row comb(d, a) c = t has many solutions, and divide
    returns only one; the rows of a degree solved as one still find an
    isomorphism onto every twist strict_apply(F, phi), and it carries F to
    the twist below degree N + 1."""
    R = SeriesRing(ModularIntegers(4), "b", 3)
    F = fgl.multiplicative_fgl(R, R.one(), 7)
    ctx = SeriesCtx(R, ("t",), 8)
    choices = [R.zero(), R.one(), R.gen(), R.add(R.one(), R.gen())]
    for c2, c3, c4 in itertools.product(choices, repeat=3):
        phi = ctx.series({(1,): R.one(), (2,): c2, (3,): c3, (4,): c4})
        G = fgl.strict_apply(F, phi)
        res = fgl.find_iso(F, G, "strict", N=6)
        assert isinstance(res, fgl.IsoResult), (c2, c3, c4, res)
        assert fgl.strict_apply(F, res.phi).F == G.F


@settings(max_examples=200, deadline=None)
@given(d=st.integers(2, 9), data=st.data())
def test_solve_degree_is_the_least_solution_of_all_rows_over_z8(d, data):
    """The rows comb(d, a) c = t_a solved as one give None exactly when no c
    in Z/8 solves every row, and otherwise the least such c.  Half the draws
    start from a solution, so both outcomes occur."""
    R = ModularIntegers(8)
    if data.draw(st.booleans()):
        c = data.draw(st.integers(0, 7))
        t = [comb(d, a) * c % 8 for a in range(1, d)]
        t[data.draw(st.integers(0, d - 2))] += data.draw(st.sampled_from([0, 0, 1, 2, 4]))
        t = [v % 8 for v in t]
    else:
        t = data.draw(st.lists(st.integers(0, 7), min_size=d - 1, max_size=d - 1))
    sols = [c for c in range(8) if all(comb(d, a) * c % 8 == t[a - 1] for a in range(1, d))]
    assert fgl._solve_degree(R, d, t) == (sols[0] if sols else None)


def test_canonical_subgroup_multiplicative():
    Z8 = ModularIntegers(8)
    K = fgl.canonical_subgroup(fgl.multiplicative_fgl(Z8, 1, 8))
    assert K.alpha == 2


def test_canonical_subgroup_family_mod4():
    F = fgl.two_adic_family_fgl(2, 6, 9)
    K = fgl.canonical_subgroup(F)
    alpha = K.alpha
    assert all(c % 2 == 0 for c in alpha.terms.values())
    assert (alpha.terms.get((0,), 0) // 2) % 2 == 1


def test_canonical_subgroup_additive_rejected():
    with pytest.raises(NotOrdinary):
        fgl.canonical_subgroup(fgl.additive_fgl(ModularIntegers(8), 8))


def test_quotient_mu2():
    Z8 = ModularIntegers(8)
    Fm = fgl.multiplicative_fgl(Z8, 1, 8)
    res = fgl.quotient_by_subgroup(Fm, fgl.canonical_subgroup(Fm))
    assert res.fgl.coefficient(1, 1) == 7      # x + y - xy type
    iso = fgl.find_iso(res.fgl, fgl.multiplicative_fgl(Z8, 7, 8), "strict", N=6)
    assert isinstance(iso, fgl.IsoResult)


def test_quotient_rejects_trivial_kernel():
    Z8 = ModularIntegers(8)
    Fm = fgl.multiplicative_fgl(Z8, 1, 8)
    with pytest.raises(InvalidKernel):
        fgl.quotient_by_subgroup(Fm, fgl.KernelPolynomial(Z8.zero()))


def test_quotient_checks_the_kernel_without_recomputing_it(monkeypatch):
    """The caller's kernel is validated by divisibility: x(x + alpha) must
    divide [2](x) = 2x + x^2 with a unit quotient, so alpha = 2 only."""
    Z8 = ModularIntegers(8)
    Fm = fgl.multiplicative_fgl(Z8, 1, 8)
    K = fgl.canonical_subgroup(Fm)
    calls = []
    monkeypatch.setattr(fgl, "canonical_subgroup", lambda F: calls.append(F))
    res = fgl.quotient_by_subgroup(Fm, K)
    assert calls == []
    assert res.fgl.coefficient(1, 1) == 7
    for alpha in (6, 1, 4):
        with pytest.raises(InvalidKernel):
            fgl.quotient_by_subgroup(Fm, fgl.KernelPolynomial(alpha))


def test_kernel_check_certifies_alpha_to_valuation_prec_minus_one():
    """A law known below degree P fixes alpha only modulo (2, b)-valuation
    P - 1, so the check accepts exactly the alphas that agree that far, even
    where the ring's nilpotency is deeper (here P - 1 = 3 < 6)."""
    F = fgl.two_adic_family_fgl(3, 3, 3)
    R = F.ring
    assert F.prec - 1 < fgl._nilpotency(R)
    alpha = fgl.canonical_subgroup(F).alpha
    b, two, four = R.gen(), R.from_int(2), R.from_int(4)
    fgl._check_kernel(F, fgl.KernelPolynomial(alpha))
    for d in (R.mul(two, b), R.mul(b, b), four):               # valuation P - 2
        with pytest.raises(InvalidKernel):
            fgl._check_kernel(F, fgl.KernelPolynomial(R.add(alpha, d)))
    for d in (R.mul(two, R.mul(b, b)), R.mul(four, b)):        # valuation P - 1
        fgl._check_kernel(F, fgl.KernelPolynomial(R.add(alpha, d)))


def _random_scalar(R, rng):
    """An element of Z/m, or of Z/m[[b]] with every digit drawn."""
    if isinstance(R, SeriesRing):
        return R.ctx.series({(i,): rng.randrange(R.base.m) for i in range(R.prec)})
    return rng.randrange(R.m)


def _family_over_f2(bprec: int, xprec: int) -> fgl.FormalGroupLaw:
    R = SeriesRing(PrimeField(2), "b", bprec)
    return fgl.make_fgl(fgl.family_law(R, R.one(), R.gen(), xprec))


HORNER_LAWS = {
    "Z/8": lambda: fgl.conic_fgl(ModularIntegers(8), 1, 1, 9),
    "Z/4[[b]]": lambda: fgl.two_adic_family_fgl(2, 4, 8),
    "Z/16[[b]]": lambda: fgl.two_adic_family_fgl(4, 3, 7),
    "F_2[[b]]": lambda: _family_over_f2(5, 8),
}


@pytest.mark.parametrize("law", HORNER_LAWS)
def test_divides_two_series_matches_per_term_evaluation(monkeypatch, law):
    """Differential test of the Horner evaluation in _divides_two_series:
    g(-alpha), g = [2](x)/x, equals the per-term evaluation of
    oracles.eval_scalars_oracle, and so does the verdict read from it, for
    the law's own [2](x) and for random series with zero constant term, at
    alpha = 0, the unit 1 (where every term of g counts), the canonical
    alpha and random alphas.  One call makes at most deg g products in the
    ring."""
    F = HORNER_LAWS[law]()
    R = F.ring
    rng = random.Random(31)
    valuation, seen = fgl._two_b_valuation, []
    monkeypatch.setattr(fgl, "_two_b_valuation", lambda v, R: seen.append(v) or valuation(v, R))
    products = [0]
    mul = R.mul

    def counted(a, b):
        products[0] += 1
        return mul(a, b)
    monkeypatch.setattr(R, "mul", counted)
    alphas = [R.zero(), R.one(), fgl.canonical_subgroup(F).alpha] + \
        [_random_scalar(R, rng) for _ in range(4)]
    ctx = F.two_series().ctx
    twos = [F.two_series()] + [
        ctx.series({(k,): _random_scalar(R, rng) for k in range(1, F.prec)
                    if rng.random() < 0.7}) for _ in range(6)]
    verdicts = set()
    for two in twos:
        deg = max((k for (k,) in two.terms), default=1) - 1
        g = Series(ctx.at_prec(F.prec - 1), {(k - 1,): c for (k,), c in two.terms.items()})
        for alpha in alphas:
            seen.clear()
            products[0] = 0
            got = fgl._divides_two_series(F, two, alpha)
            assert products[0] <= deg
            want = oracles.eval_scalars_oracle(g, {"x": R.neg(alpha)})
            assert R.eq(seen[0], want)
            assert got == (valuation(want, R) >= min(F.prec - 1, fgl._nilpotency(R)))
            verdicts.add(got)
    assert verdicts == {True, False}


def test_quotient_of_a_law_without_height_one_is_not_ordinary():
    Z8 = ModularIntegers(8)
    K = fgl.KernelPolynomial(2)
    with pytest.raises(NotOrdinary):
        fgl.quotient_by_subgroup(fgl.additive_fgl(Z8, 8), K)
    with pytest.raises(NotOrdinary):
        fgl.quotient_by_subgroup(fgl.multiplicative_fgl(Z8, 1, 1), K)


def count_m_series(monkeypatch) -> list:
    """The m of every m_series call, in order."""
    calls = []
    real = fgl.m_series

    def counting(F, m):
        calls.append(m)
        return real(F, m)
    monkeypatch.setattr(fgl, "m_series", counting)
    return calls


@pytest.mark.parametrize("make", [lambda: fgl.multiplicative_fgl(ModularIntegers(8), 1, 8),
                                  lambda: fgl.two_adic_family_fgl(3, 5, 7)],
                         ids=["mu2", "family"])
def test_canonical_subgroup_and_quotient_make_one_two_series(make, monkeypatch):
    """canonical_subgroup then quotient_by_subgroup on one law make [2](x)
    once, a second pass on that law makes none, and another law its own."""
    calls = count_m_series(monkeypatch)
    F = make()
    fgl.quotient_by_subgroup(F, fgl.canonical_subgroup(F))
    assert calls == [2]
    fgl.quotient_by_subgroup(F, fgl.canonical_subgroup(F))
    assert calls == [2]
    fgl.canonical_subgroup(make())
    assert calls == [2, 2]


def test_a_kernel_from_another_law_is_refused():
    """Negative control for the shared [2](x): G is F with its xy coefficient
    moved by 2, so its kernel polynomial differs.  After both canonical
    subgroups have made their series, each law's quotient refuses the other's
    kernel, and a law whose F is replaced checks against the new F's [2](x)."""
    F = fgl.two_adic_family_fgl(3, 5, 7)
    R = F.ring
    terms = dict(F.F.terms)
    terms[(1, 1)] = R.add(terms[(1, 1)], R.from_int(2))
    G = fgl.make_fgl(Series(F.ctx, terms), F.origin)
    K, KG = fgl.canonical_subgroup(F), fgl.canonical_subgroup(G)
    assert not R.eq(K.alpha, KG.alpha)
    with pytest.raises(InvalidKernel):
        fgl.quotient_by_subgroup(F, KG)
    with pytest.raises(InvalidKernel):
        fgl.quotient_by_subgroup(G, K)
    F.F = G.F
    assert F.two_series() == fgl.m_series(G, 2)
    with pytest.raises(InvalidKernel):
        fgl.quotient_by_subgroup(F, K)


def test_sum_with_point_working_precision_is_exact():
    """The chord with the 2-torsion point, from a w-series known below N and
    with no working degree above N, gives what a wider run gives, on the
    family curve y^2 + xy + by = x^3 over Q[[b]]/(b^4)."""
    Rq = SeriesRing(QQ, "b", 4)
    E = elliptic.gamma1_3_curve(Rq, Rq.one(), Rq.gen())
    x0, y0 = fgl._formal_two_torsion(E)

    def exact(s):
        return (s.ctx.vars, s.prec,
                {e: (c.prec, {k: (type(v), v) for k, v in c.terms.items()})
                 for e, c in s.terms.items()})
    for N in (3, 8):
        s = elliptic.sum_with_point(E, x0, y0, N)
        assert s.prec == N
        assert exact(s) == exact(elliptic.sum_with_point(E, x0, y0, N + 5).truncate(N))


def _typed(v):
    """Variables, precision, terms and value types, recursively."""
    if isinstance(v, Series):
        return (v.ctx.vars, v.prec, {e: _typed(c) for e, c in v.terms.items()})
    if isinstance(v, Poly):
        return (type(v), {e: _typed(c) for e, c in v.terms.items()})
    return (type(v), v)


@pytest.fixture
def cold_lift(monkeypatch):
    """An empty family-lift memo, restored after the test."""
    monkeypatch.setattr(fgl, "_family_lift", None)


QUOTIENT_LAWS = {
    "family(1, 8, 9)": lambda: fgl.two_adic_family_fgl(1, 8, 9),
    "family(2, 5, 7)": lambda: fgl.two_adic_family_fgl(2, 5, 7),
    "family(3, 6, 8)": lambda: fgl.two_adic_family_fgl(3, 6, 8),
    "family(3, 8, 10)": lambda: fgl.two_adic_family_fgl(3, 8, 10),
    "family(1, 10, 11)": lambda: fgl.two_adic_family_fgl(1, 10, 11),
    "conic Z/8": lambda: fgl.multiplicative_fgl(ModularIntegers(8), 1, 8),
}


@pytest.mark.parametrize("law", QUOTIENT_LAWS)
def test_quotient_lift_at_output_precision_matches_guarded_oracle(cold_lift, law):
    """The lift run at the output precision gives, term for term and type for
    type, what the lift with four guard degrees gives after truncation."""
    F = QUOTIENT_LAWS[law]()
    res = fgl.quotient_by_subgroup(F, fgl.canonical_subgroup(F))
    fgl_lift, isogeny_lift, tau = quotient_lift_oracle(F)
    assert _typed(res.fgl_lift) == _typed(fgl_lift)
    assert _typed(res.isogeny_lift) == _typed(isogeny_lift)
    assert _typed(fgl.reduce_scalar(tau, F.ring)) == _typed(res.tau)


def _random_log(R, prec: int, rng: random.Random, bprec: int = 0):
    """A random lam over R = Q or Q[[b]] (bprec b-degrees) below x^prec, with
    zero constant term, a unit linear coefficient and some zero terms."""
    def scalar(unit=False):
        if not bprec:
            return Fraction(rng.choice([-3, -1, 1, 2, 5]) if unit else rng.randint(-4, 4),
                            rng.randint(1, 6))
        terms = {(k,): Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for k in range(bprec)}
        if unit:
            terms[(0,)] = Fraction(rng.choice([-2, 1, 3]), rng.randint(1, 3))
        return R.ctx.series(terms)
    terms = {(1,): scalar(unit=True)}
    terms.update({(k,): scalar() for k in range(2, prec) if rng.random() < 0.8})
    return SeriesCtx(R, ("x",), prec).series(terms)


@pytest.mark.parametrize("P", range(1, 14))
def test_law_from_log_matches_reverse_and_compose(P):
    """exp(lam(x) + lam(y)) from the Lie series of 1/lam' equals, term for
    term and type for type, the reverse of lam composed with the bivariate
    sum, over Q and over Q[[b]] at b-precisions 1 to 6, from a lam known at
    P or a few degrees above it."""
    def outcome(build, lam):
        try:
            return _typed(build(lam, P))
        except NotInvertible:         # a lam known only below x^1
            return NotInvertible

    rng = random.Random(P)
    rings = [(QQ, 0)] + [(SeriesRing(QQ, "b", bp), bp) for bp in range(1, 7)]
    for R, bp in rings:
        lam = _random_log(R, P + rng.randint(0, 2), rng, bp)
        assert outcome(fgl.law_from_log, lam) == outcome(law_from_log_oracle, lam)


@pytest.mark.parametrize("P", [2, 5, 9, 13])
def test_flow_terms_are_exact_below_their_precision(P):
    """A_n = D^n(x)/n! built from lam known below P claims precision P - n,
    and each coefficient it claims agrees with the A_n built from a lam known
    six degrees further."""
    rng = random.Random(P)
    for R, bp in [(QQ, 0), (SeriesRing(QQ, "b", 4), 4)]:
        lam = _random_log(R, P + 6, rng, bp)
        short = fgl._flow_terms(lam.truncate(P), P, P - 1)
        long = fgl._flow_terms(lam, P + 6, P - 1)
        assert [a.prec for a in short] == [P - n for n in range(P)]
        for a, b in zip(short, long):
            assert _typed(a) == _typed(b.truncate(a.prec))


def test_law_from_log_refuses_what_is_not_a_logarithm():
    x = SeriesCtx(QQ, ("x",), 6).gen("x")
    with pytest.raises(NotInvertible):
        fgl.law_from_log(x * x + x * x * x, 6)
    Rb = SeriesRing(QQ, "b", 3)
    xb = SeriesCtx(Rb, ("x",), 6).gen("x")
    with pytest.raises(NotInvertible):
        fgl.law_from_log(xb.scale(Rb.gen()) + xb * xb, 6)
    with pytest.raises(NotInvertible):
        fgl.law_from_log(x + x.ctx.one(), 6)
    with pytest.raises(TruncationError):
        fgl.law_from_log(x, 7)
    assert fgl.law_from_log(x, 6) == fgl.additive_fgl(QQ, 5).F


def test_quotient_lift_neither_reverses_nor_composes(cold_lift, monkeypatch):
    """Over the Q-algebra lift, quotient_by_subgroup reverses no series and
    composes nothing, into one variable or two: lam = 2 L(f^-1) is one
    compose_reverse, and the law is read from lam by law_from_log."""
    calls = []
    reverse, compose = Series.reverse, Series.compose

    def over_q(R):
        return (R.base if isinstance(R, SeriesRing) else R) is QQ

    def counted_reverse(self):
        calls.append("reverse")
        return reverse(self)

    def counted_compose(self, subs):
        target = next(iter(subs.values())).ctx
        if over_q(target.ring):
            calls.append(f"compose into {len(target.vars)} variables")
        return compose(self, subs)

    for law in ("family(3, 8, 10)", "conic Z/8"):
        F = QUOTIENT_LAWS[law]()
        K = fgl.canonical_subgroup(F)
        calls.clear()
        monkeypatch.setattr(Series, "reverse", counted_reverse)
        monkeypatch.setattr(Series, "compose", counted_compose)
        fgl.quotient_by_subgroup(F, K)
        monkeypatch.undo()
        assert calls == [], law


def count_w_series(monkeypatch) -> list:
    """The precisions of the w-series built from now on."""
    precs = []
    real = elliptic.curve_w_series

    def counted(E, prec):
        precs.append(prec)
        return real(E, prec)

    monkeypatch.setattr(elliptic, "curve_w_series", counted)
    monkeypatch.setattr(fgl, "curve_w_series", counted)
    return precs


def test_quotient_builds_one_w_series(cold_lift, monkeypatch):
    """The chord with the 2-torsion point and the log share one w-series,
    built at the output precision."""
    F = fgl.two_adic_family_fgl(2, 5, 7)
    K = fgl.canonical_subgroup(F)
    precs = count_w_series(monkeypatch)
    fgl.quotient_by_subgroup(F, K)
    assert precs == [F.prec]


# -- the family's quotient lift, built once per process -------------------------

def quotient_of(k: int, bprec: int, xprec: int) -> fgl.QuotientResult:
    F = fgl.two_adic_family_fgl(k, bprec, xprec)
    return fgl.quotient_by_subgroup(F, fgl.canonical_subgroup(F))


def typed_result(res: fgl.QuotientResult) -> tuple:
    """All five fields of a quotient, term for term and type for type."""
    return (_typed(res.fgl.F), res.fgl.origin, _typed(res.isogeny), _typed(res.tau),
            _typed(res.fgl_lift), _typed(res.isogeny_lift))


def lift_shape() -> tuple:
    """(b-precision, x-precision) of the memoised lift."""
    f, _, Fbar = fgl._family_lift
    return f.ctx.ring.prec, Fbar.prec


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("order", [
    [(8, 9), (5, 7)],           # larger, then smaller: a truncation in b and in x
    [(5, 7), (8, 9)],           # smaller, then larger: a rebuild
    [(8, 6), (4, 9)],           # not nested: a rebuild at (8, 10), then both truncate
])
def test_memo_served_quotient_equals_a_cold_build(cold_lift, k, order):
    """A quotient served from the family-lift memo equals, in all five fields,
    the quotient built from an empty memo, and its lift equals the lift with
    four guard degrees."""
    cold = {}
    for req in order:
        fgl._family_lift = None
        cold[req] = typed_result(quotient_of(k, *req))
    fgl._family_lift = None
    for req in order + order[:1]:
        res = quotient_of(k, *req)
        assert typed_result(res) == cold[req], req
        F = fgl.two_adic_family_fgl(k, *req)
        fgl_lift, isogeny_lift, tau = quotient_lift_oracle(F)
        assert _typed(res.fgl_lift) == _typed(fgl_lift)
        assert _typed(res.isogeny_lift) == _typed(isogeny_lift)
        assert _typed(res.tau) == _typed(fgl.reduce_scalar(tau, F.ring))
    assert lift_shape() == (max(m for m, _ in order), max(p for _, p in order) + 1)


def test_a_warm_lift_builds_no_w_series(cold_lift, monkeypatch):
    """A request at or below the memo in b and in x builds nothing on the
    lift; one above it in either coordinate rebuilds once, at the
    componentwise maximum."""
    quotient_of(2, 6, 8)
    precs = count_w_series(monkeypatch)
    quotient_of(3, 6, 8)
    quotient_of(1, 4, 5)
    assert precs == [] and lift_shape() == (6, 9)
    quotient_of(2, 7, 6)
    assert precs == [9] and lift_shape() == (7, 9)


def test_memo_returns_fresh_series(cold_lift):
    """Clearing the terms of a served result leaves the memo intact."""
    res = quotient_of(2, 5, 7)
    want = typed_result(res)
    for s in (res.fgl_lift, res.isogeny_lift, res.tau, *res.fgl_lift.terms.values(),
              *res.isogeny_lift.terms.values()):
        s.terms.clear()
    assert typed_result(quotient_of(2, 5, 7)) == want


def test_only_the_family_curve_is_served_from_the_memo(cold_lift, monkeypatch):
    """A conic runs its own lift: the memo is neither read nor written, and
    the lift still matches the guarded oracle."""
    quotient_of(2, 6, 8)
    memo = fgl._family_lift
    calls = []
    monkeypatch.setattr(fgl, "_family_lift_data", lambda m, P: calls.append((m, P)))
    F = QUOTIENT_LAWS["conic Z/8"]()
    res = fgl.quotient_by_subgroup(F, fgl.canonical_subgroup(F))
    fgl_lift, isogeny_lift, _ = quotient_lift_oracle(F)
    assert _typed(res.fgl_lift) == _typed(fgl_lift)
    assert _typed(res.isogeny_lift) == _typed(isogeny_lift)
    assert calls == [] and fgl._family_lift is memo


_sweep_rng = random.Random(34)
# 60 seeded conics (b, c): b with an odd numerator, c in [-9, 9], each over a
# denominator in {1, 3, 5}
CONIC_SWEEP = [(Fraction(2 * _sweep_rng.randint(-5, 4) + 1, _sweep_rng.choice((1, 3, 5))),
                Fraction(_sweep_rng.randint(-9, 9), _sweep_rng.choice((1, 3, 5))))
               for _ in range(60)]


@pytest.mark.parametrize("P", range(1, 14))
def test_conic_lift_through_its_nodal_cubic_matches_the_closed_form(P):
    """The lift of a conic (b, c), run by the chord and the log of
    y^2 - b xy = x^3 - c x^2, gives term for term and type for type the
    isogeny, the kernel point and the quotient law of the conic's closed
    form, or the same refusal (below x^2 the isogeny has no unit linear
    coefficient)."""
    def outcome(build):
        try:
            return tuple(map(_typed, build()))
        except NotInvertible:
            return NotInvertible

    def closed_form():
        f, tau, L = oracles.conic_isogeny_oracle(b, c, P)
        lam = L.compose_reverse(f)
        return f, tau, fgl.law_from_log(lam.scale(Fraction(2)), P)

    for b, c in CONIC_SWEEP:
        got = outcome(lambda: fgl._quotient_lift(fgl.ConicOrigin(b, c), P))
        assert got == outcome(closed_form), (b, c)
        assert (got is NotInvertible) == (P == 1)


@pytest.mark.parametrize("law", [lambda R: fgl.multiplicative_fgl(R, 2, 8),
                                 lambda R: fgl.conic_fgl(R, 2, 3, 8)],
                         ids=["x + y + 2xy", "conic(2, 3)"])
def test_an_even_conic_is_refused_before_any_lift(monkeypatch, law):
    """A conic with even b has [2](x) = 2x + b x^2 + ..., no unit x^2
    coefficient: the kernel check refuses it before a lift is built."""
    Z8 = ModularIntegers(8)
    K = fgl.canonical_subgroup(fgl.multiplicative_fgl(Z8, 1, 8))
    calls = []
    for name in ("_quotient_lift", "_curve_lift"):
        monkeypatch.setattr(fgl, name, lambda *args, name=name: calls.append(name))
    with pytest.raises(NotOrdinary):
        fgl.quotient_by_subgroup(law(Z8), K)
    assert calls == []


def _bump(Fbar: Series, e: tuple, c) -> Series:
    """Fbar with c * b added to its coefficient at e."""
    R, terms = Fbar.ctx.ring, dict(Fbar.terms)
    terms[e] = R.add(terms.get(e, R.zero()), R.gen().scale(c))
    return Series(Fbar.ctx, terms)


@pytest.mark.parametrize("perturb, match", [
    (lambda G: _bump(_bump(G, (1, 2), Fraction(1)), (2, 1), Fraction(1)),
     "isogeny identity fails after reduction"),
    (lambda G: _bump(G, (1, 2), Fraction(1)), "commutativity fails"),
    (lambda G: _bump(_bump(G, (1, 2), Fraction(1, 2)), (2, 1), Fraction(1, 2)),
     "not 2-integral"),
])
def test_a_perturbed_memo_fails_the_quotient_and_its_checks(cold_lift, perturb, match):
    """Negative control: one b-coefficient of the memoised quotient law moved
    (with its mirror, or alone) makes the next memo-served quotient raise,
    and fgl.quotient-frobenius and fgl.recognize-family report fail: the
    per-call verification runs on memo hits."""
    quotient_of(1, 8, 9)
    f, tau, Fbar = fgl._family_lift
    fgl._family_lift = f, tau, perturb(Fbar)
    memo = fgl._family_lift
    with pytest.raises((AlgebraError, QuotientPrecisionError), match=match):
        quotient_of(2, 5, 7)
    status = {c["id"]: c["status"] for c in run_checks(RunConfig(suites=("fgl",)))["checks"]}
    assert status["fgl.quotient-frobenius"] == "fail"
    assert status["fgl.recognize-family"] == "fail"
    assert fgl._family_lift is memo


@pytest.mark.parametrize("at, e", [(2, (1, 2)), (0, (3,))], ids=["quotient law", "isogeny"])
def test_a_2_adic_denominator_in_the_lift_is_refused_by_the_reduction(cold_lift, at, e):
    """A b/2 added to the memoised quotient law, or to the memoised isogeny,
    has no image in Z/4[[b]]: the reduction's IntegralityFailure comes out as
    QuotientPrecisionError, with no 2-integrality walk beforehand."""
    quotient_of(1, 8, 9)
    lift = list(fgl._family_lift)
    lift[at] = _bump(lift[at], e, Fraction(1, 2))
    fgl._family_lift = tuple(lift)
    with pytest.raises(QuotientPrecisionError, match="not 2-integral") as err:
        quotient_of(2, 5, 7)
    assert isinstance(err.value.__cause__, IntegralityFailure)


def test_runs_do_not_leak_through_the_memos(cold_lift, monkeypatch):
    """The default run, the deeper run of fgl and elliptic and the default run
    again, in one process: the two default bodies are identical, and each
    body is its recorded one."""
    monkeypatch.setattr(fgl, "_universal_law", None)

    def body(cfg):
        report = run_checks(cfg)
        return {k: report[k] for k in ("checks", "summary")}

    first = body(RunConfig())
    deep = body(RunConfig(two_adic_prec=8, series_prec=20, suites=("fgl", "elliptic")))
    again = body(RunConfig())
    assert first == again and first["summary"]["fail"] == 0
    data = Path(__file__).parent / "data"
    assert first == json.loads((data / "verify_default_body.json").read_text())
    assert deep == json.loads((data / "verify_deep_body.json").read_text())


def test_quotient_frobenius_twist():
    F1 = fgl.two_adic_family_fgl(1, 8, 9)
    K1 = fgl.canonical_subgroup(F1)
    assert F1.ring.is_zero(K1.alpha)
    q = fgl.quotient_by_subgroup(F1, K1)
    R = F1.ring
    # the twist at the quotient's x-precision, so its top degree is compared
    twist = fgl.family_fgl_at(R, R.mul(R.gen(), R.gen()), 9, check_assoc=False)
    assert q.fgl.F == twist.F
    assert q.isogeny.ucoeff(1).is_zero()
    assert R.eq(q.isogeny.ucoeff(2), R.one())


def test_quotient_frobenius_check_reads_the_top_degree(monkeypatch):
    """Negative control: one degree-9 coefficient of the quotient law (its
    x-precision is 10) plus one makes fgl.quotient-frobenius fail."""
    check = next(c for c in REGISTRY if c.id == "fgl.quotient-frobenius")
    quotient = fgl.quotient_by_subgroup

    def perturbed(F, K):
        res = quotient(F, K)
        law, R = res.fgl.F, res.fgl.ring
        terms = dict(law.terms)
        terms[(1, 8)] = R.add(law.coefficient((1, 8)), R.one())
        bad = fgl.FormalGroupLaw(Series(law.ctx, terms), res.fgl.origin)
        return dataclasses.replace(res, fgl=bad)

    check.fn(RunConfig(), random.Random(0))
    monkeypatch.setattr(fgl, "quotient_by_subgroup", perturbed)
    with pytest.raises(CheckFailure):
        check.fn(RunConfig(), random.Random(0))


def test_isogeny_identity_reverified():
    """hom_residual against its four compositions written out term by term:
    zero for the isogeny of the family quotient over Z/4[[b]], and the same
    nonzero series once one isogeny coefficient moves."""
    F = fgl.two_adic_family_fgl(2, 5, 7)
    res = fgl.quotient_by_subgroup(F, fgl.canonical_subgroup(F))
    f, G = res.isogeny, res.fgl.F
    got = fgl.hom_residual(f, F.F, G)
    assert got.is_zero() and got.prec == F.prec
    assert _typed(got) == _typed(oracles.hom_residual_oracle(f, F.F, G))
    R = F.ring
    moved = f + f.ctx.series({(3,): R.one()})
    got = fgl.hom_residual(moved, F.F, G)
    assert not got.is_zero()
    assert _typed(got) == _typed(oracles.hom_residual_oracle(moved, F.F, G))


def test_isogeny_identity_check_fails_on_a_moved_isogeny(monkeypatch):
    """Negative control: the x^3 coefficient of the returned isogeny plus
    one makes fgl.isogeny-identity fail."""
    check = next(c for c in REGISTRY if c.id == "fgl.isogeny-identity")
    quotient = fgl.quotient_by_subgroup

    def perturbed(F, K):
        res = quotient(F, K)
        f = res.isogeny
        return dataclasses.replace(res, isogeny=f + f.ctx.series({(3,): F.ring.one()}))

    check.fn(RunConfig(), random.Random(0))
    monkeypatch.setattr(fgl, "quotient_by_subgroup", perturbed)
    with pytest.raises(CheckFailure, match=re.escape("f(F(x,y)) != F'(f(x), f(y))")):
        check.fn(RunConfig(), random.Random(0))


def test_noniso_rescaled_search_matches_the_pairwise_oracle(monkeypatch):
    """One search of x + y + xy over the 26 products uc gives each of the
    196 pairs (u, c) the degree where the search of x + y + uxy from linear
    coefficient c fails, and that degree is 4 for every pair."""
    Z13 = Z_inverted(3)
    Fc = fgl.conic_fgl(Z13, Fraction(3), Fraction(3), 7)
    F1 = fgl.conic_fgl(Z13, Fraction(1), Fraction(0), 7)
    cands = Z13.unit_candidates(3)
    want = oracles.noniso_degrees_oracle(Fc, cands)
    find_iso, searched = fgl.find_iso, []

    def counted(F, G, mode="strict", N=None, unit_candidates=None):
        searched.append(len(unit_candidates))
        return find_iso(F, G, mode, N, unit_candidates)

    monkeypatch.setattr(fgl, "find_iso", counted)
    got = _noniso_degrees(Fc, F1, cands)
    assert got == want and len(got) == 196 and set(got.values()) == {4}
    assert searched == [26]


def _noniso_check():
    return next(c for c in REGISTRY if c.id == "fgl.noniso-z13")


def test_noniso_check_fails_on_an_isomorphic_law(monkeypatch):
    """Negative control: x + y + 3xy in place of conic(3, 3) is isomorphic
    to x + y + xy by x -> 3x, and fgl.noniso-z13 fails."""
    check, conic = _noniso_check(), fgl.conic_fgl

    def replaced(ring, b, c, N):
        return conic(ring, b, Fraction(0) if (b, c) == (3, 3) else c, N)

    check.fn(RunConfig(), random.Random(0))
    monkeypatch.setattr(fgl, "conic_fgl", replaced)
    with pytest.raises(CheckFailure, match="unexpected isomorphism"):
        check.fn(RunConfig(), random.Random(0))


def test_noniso_check_fails_when_a_target_is_not_the_rescaled_law(monkeypatch):
    """Negative control: the xy coefficient of x + y + 9xy plus one breaks
    x + y + uxy = u^-1 F_1(ux, uy), and fgl.noniso-z13 fails."""
    check, conic = _noniso_check(), fgl.conic_fgl

    def perturbed(ring, b, c, N):
        F = conic(ring, b, c, N)
        if (b, c) != (9, 0):
            return F
        terms = dict(F.F.terms)
        terms[(1, 1)] = ring.add(terms[(1, 1)], ring.one())
        return fgl.FormalGroupLaw(Series(F.F.ctx, terms), F.origin)

    check.fn(RunConfig(), random.Random(0))
    monkeypatch.setattr(fgl, "conic_fgl", perturbed)
    with pytest.raises(CheckFailure, match=re.escape("x+y+uxy is not u^-1 F_1(ux, uy) at u = 9")):
        check.fn(RunConfig(), random.Random(0))


def test_noniso_check_fails_when_the_degrees_differ(monkeypatch):
    """Negative control: one candidate's failure degree moved to 5, and
    "degree 4 for every candidate" no longer holds."""
    check, find_iso = _noniso_check(), fgl.find_iso

    def moved(*args, **kwargs):
        r = find_iso(*args, **kwargs)
        return dataclasses.replace(r, details={**r.details, "1": 5})

    check.fn(RunConfig(), random.Random(0))
    monkeypatch.setattr(fgl, "find_iso", moved)
    with pytest.raises(CheckFailure, match=re.escape("candidates fail at degrees [4, 5]")):
        check.fn(RunConfig(), random.Random(0))


def test_recognize_family_mod4():
    F = fgl.two_adic_family_fgl(2, 6, 8)
    q = fgl.quotient_by_subgroup(F, fgl.canonical_subgroup(F))
    rec = fgl.recognize_in_family(q.fgl)
    R = q.fgl.ring
    diff = R.sub(rec.b_param, R.mul(R.gen(), R.gen()))
    assert all(c % 2 == 0 for c in diff.terms.values())
    # the returned pair satisfies phi(F') = F_{b'}(phi, phi) at the full modulus
    # (asserted inside recognize_in_family); theta is its divided defect
    th = fgl.theta_defect(R.gen(), rec.b_param, R)
    assert th.ctx.prec == 6


def test_recognize_family_mod8():
    F = fgl.two_adic_family_fgl(3, 5, 7)
    q = fgl.quotient_by_subgroup(F, fgl.canonical_subgroup(F))
    rec = fgl.recognize_in_family(q.fgl)
    R = q.fgl.ring
    diff = R.sub(rec.b_param, R.mul(R.gen(), R.gen()))
    assert all(c % 2 == 0 for c in diff.terms.values())


@pytest.mark.parametrize("bprec,xprec", [(1, 3), (3, 4), (5, 7), (8, 10)])
def test_recognition_columns_match_the_scaled_series(bprec, xprec):
    """The columns read at b-offsets equal the bits of c_d b^m and Gs b^m
    made by scaling, row for row and column for column."""
    row_at, want = oracles.recognition_columns_oracle(bprec, xprec)
    R2 = SeriesRing(PrimeField(2), "b", bprec)
    b2sq = R2.mul(R2.gen(), R2.gen())
    F0 = fgl.family_fgl_at(R2, b2sq, xprec - 1).F
    assert fgl._recognition_rows(xprec, bprec) == row_at
    got = fgl._recognition_columns(F0, fgl._family_b_direction(R2, b2sq, xprec), row_at)
    assert got == want and len(got) == xprec * bprec


@pytest.mark.parametrize("k,bprec,xprec", [(2, 5, 7), (2, 6, 8), (3, 5, 7), (3, 8, 10),
                                           (4, 5, 8), (4, 6, 8)])
def test_recognize_in_family_matches_oracle(k, bprec, xprec, monkeypatch):
    """Same (b', phi), and f2_solve handed the same (columns, target) at
    every level."""
    F = fgl.two_adic_family_fgl(k, bprec, xprec)
    q = fgl.quotient_by_subgroup(F, fgl.canonical_subgroup(F))
    calls = {fgl: [], oracles: []}
    for module, log in calls.items():
        def logged(cols, target, log=log):
            log.append((list(cols), target))
            return linalg.f2_solve(cols, target)
        monkeypatch.setattr(module, "f2_solve", logged)
    rec = fgl.recognize_in_family(q.fgl)
    ref = oracles.recognize_in_family_oracle(q.fgl)
    assert rec.b_param == ref.b_param
    assert rec.phi == ref.phi and set(rec.phi.terms) == set(ref.phi.terms)
    assert calls[fgl] == calls[oracles] and calls[fgl]


def test_recognize_in_family_final_check_catches_a_wrong_step(monkeypatch):
    """A level step that solves nothing leaves the residual nonzero at the
    full modulus, and the last level says so."""
    F = fgl.two_adic_family_fgl(2, 5, 7)
    q = fgl.quotient_by_subgroup(F, fgl.canonical_subgroup(F))
    monkeypatch.setattr(fgl, "f2_solve", lambda cols, target: 0)
    with pytest.raises(RecognitionFailed, match="residual nonzero at full modulus"):
        fgl.recognize_in_family(q.fgl)


@pytest.mark.parametrize("bprec,xprec", [(5, 7), (6, 8), (8, 10)])
def test_family_b_direction_matches_the_polynomial_derivative(bprec, xprec):
    """dF_s/ds read off the dual numbers equals d/ds of the F_2[s] law,
    evaluated at s = b^2 and at s = b + b^3."""
    R2 = SeriesRing(PrimeField(2), "b", bprec)
    b = R2.gen()
    for s in (R2.mul(b, b), R2.add(b, R2.pow(b, 3))):
        got = fgl._family_b_direction(R2, s, xprec)
        assert got.ctx.prec == xprec and got.ctx.ring is R2
        assert got == oracles.family_param_derivative_oracle(R2, s, xprec)


def perturbed_quotient(shift: int):
    """The quotient of the family over Z/4[[b]] with `shift` added to its
    x^2 y coefficient, wrapped without validation (it is not commutative)."""
    F = fgl.two_adic_family_fgl(2, 5, 7)
    q = fgl.quotient_by_subgroup(F, fgl.canonical_subgroup(F)).fgl
    R = q.ring
    terms = dict(q.F.terms)
    terms[(2, 1)] = R.add(terms.get((2, 1), R.zero()), R.from_int(shift))
    return fgl.FormalGroupLaw(Series(q.F.ctx, terms))


@pytest.mark.parametrize("shift,message", [
    (1, "mod-2 reduction is not the Frobenius twist"),
    (2, "no lift at 2-adic level 1")])
def test_recognize_in_family_rejects_a_perturbed_quotient(shift, message):
    law = perturbed_quotient(shift)
    for recognize in (fgl.recognize_in_family, oracles.recognize_in_family_oracle):
        with pytest.raises(RecognitionFailed, match=message):
            recognize(law)


def test_theta_defect_scalars():
    assert fgl.theta_defect(2, 4) == 0
    assert fgl.theta_defect(3, 3) == -3
    with pytest.raises(NotAFrobeniusLift):
        fgl.theta_defect(1, 2)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_theta_defect_matches_the_parity_loop(k):
    """theta over Z/2^k[[b]], a division by 2 read in Z/2^(k-1)[[b]], equals
    the parity loop it replaced term for term and type for type on seeded
    series, and both refuse an odd coefficient; on rationals the Z_(2)
    quotient equals the numerator and denominator test."""
    rng = random.Random(370 + k)
    R = SeriesRing(ModularIntegers(2 ** k), "b", 6)

    def draw():
        return Series(R.ctx, {(i,): v for i in range(R.prec) if (v := rng.randrange(2 ** k))})

    refused = 0
    for _ in range(80):
        x, t = draw(), draw()
        psi2 = R.add(R.mul(x, x), R.add(t, t))
        if rng.random() < 0.25:
            psi2 = R.add(psi2, Series(R.ctx, {(rng.randrange(R.prec),): 1}))
        try:
            want = oracles.theta_defect_oracle(x, psi2, R)
        except NotAFrobeniusLift:
            refused += 1
            with pytest.raises(NotAFrobeniusLift, match="odd coefficient"):
                fgl.theta_defect(x, psi2, R)
            continue
        got = fgl.theta_defect(x, psi2, R)
        assert got.ctx.ring.structure() == want.ctx.ring.structure()
        assert _typed(got) == _typed(want)
    assert 0 < refused < 80
    for _ in range(200):
        x, psi2 = (Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, 4, 5])) for _ in range(2))
        try:
            want = oracles.theta_defect_oracle(x, psi2)
        except NotAFrobeniusLift:
            with pytest.raises(NotAFrobeniusLift):
                fgl.theta_defect(x, psi2)
            continue
        got = fgl.theta_defect(x, psi2)
        assert (type(got), got) == (type(want), want)


def test_theta_defect_needs_k_at_least_two():
    """Over Z/2[[b]] theta would live mod 2^0: a usage error, as is a
    modulus that is not a power of 2."""
    for base in (PrimeField(2), ModularIntegers(2)):
        R = SeriesRing(base, "b", 4)
        with pytest.raises(NotAFrobeniusLift, match="k >= 2"):
            fgl.theta_defect(R.gen(), R.mul(R.gen(), R.gen()), R)
    R = SeriesRing(ModularIntegers(12), "b", 4)
    with pytest.raises(NotAFrobeniusLift, match="2-power modulus"):
        fgl.theta_defect(R.gen(), R.mul(R.gen(), R.gen()), R)
    R = SeriesRing(ModularIntegers(4), "b", 4)
    th = fgl.theta_defect(R.gen(), R.add(R.mul(R.gen(), R.gen()), R.from_int(2)), R)
    assert th.ctx.ring.m == 2 and th.terms == {(0,): 1}


def test_validation_random_conics():
    rng = random.Random(1)
    for _ in range(5):
        F = fgl.conic_fgl(ZZ, rng.randint(-3, 3), rng.randint(-3, 3), 8)
        fgl.validate_fgl(F.F, check_assoc=True)


def test_commutative_non_associative_law_fails_validation():
    """x + y + x^2 y + x y^2 is commutative but not associative: the check
    that compares F(F(x, y), z) with its cyclic permutation must see it."""
    ctx = SeriesCtx(ZZ, ("x", "y"), 6)
    x, y = ctx.gen("x"), ctx.gen("y")
    F = x + y + x * x * y + x * y * y
    fgl.validate_fgl(F, check_assoc=False)
    with pytest.raises(AlgebraError, match="associativity fails"):
        fgl.validate_fgl(F, check_assoc=True)
    with pytest.raises(AlgebraError, match="commutativity fails"):
        fgl.validate_fgl(F + x * x * y, check_assoc=True)


def test_constructors_leave_associativity_to_the_checks():
    """make_fgl checks unit and commutativity only: it accepts the
    commutative, non-associative x + y + x^2 y + x y^2, and validate_fgl
    rejects it."""
    ctx = SeriesCtx(ZZ, ("x", "y"), 6)
    x, y = ctx.gen("x"), ctx.gen("y")
    law = fgl.make_fgl(x + y + x * x * y + x * y * y)
    assert law.ring is ZZ and law.prec == 6
    with pytest.raises(AlgebraError, match="associativity fails"):
        fgl.validate_fgl(law.F)
    with pytest.raises(AlgebraError, match="commutativity fails"):
        fgl.make_fgl(x + y + x * x * y)


def _plus_one_at(law: Series, e: tuple) -> Series:
    """law with 1 added to its x^i y^j coefficient, e = (i, j) with i != j
    added at (j, i) too, so it stays commutative."""
    R, terms = law.ctx.ring, dict(law.terms)
    for k in {e, e[::-1]}:
        terms[k] = R.add(terms.get(k, R.zero()), R.one())
    return Series(law.ctx, terms)


@pytest.mark.parametrize("check_id", ["ell.formal-group-family", "fgl.validation-random"])
def test_family_law_checks_own_associativity(monkeypatch, check_id):
    """Negative control: the universal law plus x^2 y^2 is unital and
    commutative but not associative, and the checks claiming the family law
    is a law see it."""
    check = next(c for c in REGISTRY if c.id == check_id)
    universal = fgl.universal_family_law
    check.fn(RunConfig(), random.Random(0))
    monkeypatch.setattr(fgl, "universal_family_law",
                        lambda N: _plus_one_at(universal(N), (2, 2)))
    with pytest.raises(AlgebraError, match="associativity fails"):
        check.fn(RunConfig(), random.Random(0))


def test_conic_expansion_owns_associativity(monkeypatch):
    """Negative control: every conic law plus x^3 y^3 is unital and
    commutative but not associative, and fgl.conic-expansion sees it."""
    check = next(c for c in REGISTRY if c.id == "fgl.conic-expansion")
    conic = fgl.conic_fgl

    def perturbed(ring, b, c, N):
        law = conic(ring, b, c, N)
        return fgl.FormalGroupLaw(_plus_one_at(law.F, (3, 3)), law.origin)

    check.fn(RunConfig(), random.Random(0))
    monkeypatch.setattr(fgl, "conic_fgl", perturbed)
    with pytest.raises(AlgebraError, match="associativity fails"):
        check.fn(RunConfig(), random.Random(0))
