import random
from fractions import Fraction

import pytest

from chromalg import elliptic, fgl
from chromalg.checks import REGISTRY, CheckFailure
from chromalg.elliptic import (ADDITIVE, NODAL, SMOOTH_ORDINARY,
                               SMOOTH_SUPERSINGULAR)
from chromalg.errors import AlgebraError, JUndefined, NotInvertible, NotNodal, NotOnCurve
from chromalg.poly import PolyRing
from chromalg.report import RunConfig
from chromalg.rings import (GF, ModularIntegers, QQ, QuotientExtension, Z_inverted, Z_local, ZZ,
                            omega_ring)
from chromalg.series import Series, SeriesCtx, SeriesRing

from oracles import (automorphism_group_oracle, curve_log_oracle, curve_w_series_oracle,
                     find_node_oracle, formal_group_of_curve_oracle, sum_with_point_oracle,
                     three_torsion_oracle, two_series_oracle)
from test_fgl import _typed


@pytest.fixture(scope="module")
def family():
    return elliptic.universal_gamma1_3()


def test_family_invariants(family):
    E, P = family
    A, B = P.gen("A"), P.gen("B")
    inv = elliptic.invariants(E)
    assert inv.c4 == A * (A ** 3 - 24 * B)
    assert inv.c6 == -(A ** 6) + 36 * (A ** 3) * B - 216 * B * B
    assert inv.disc == (B ** 3) * (A ** 3 - 27 * B)
    assert 1728 * inv.disc == inv.c4 ** 3 - inv.c6 ** 2


def test_family_j(family):
    E, P = family
    A, B = P.gen("A"), P.gen("B")
    num, den = elliptic.j_invariant(E)
    assert num == (A ** 3) * ((A ** 3 - 24 * B) ** 3)
    assert den == (B ** 3) * (A ** 3 - 27 * B)


def test_tate_invariants():
    P = PolyRing(ZZ, ("beta",))
    beta = P.gen("beta")
    inv = elliptic.invariants(elliptic.gamma1_3_curve(P, beta, P.zero()))
    assert inv.c4 == beta ** 4 and inv.c6 == -(beta ** 6)
    assert inv.disc.is_zero()


def test_additive_point_invariants():
    F2 = GF(2)
    inv = elliptic.invariants(elliptic.gamma1_3_curve(F2, F2.zero(), F2.zero()))
    assert F2.is_zero(inv.c4) and F2.is_zero(inv.disc)


def test_j_undefined_on_vanishing_disc():
    with pytest.raises(JUndefined):
        elliptic.j_invariant(elliptic.gamma1_3_curve(ZZ, 1, 0))


def test_supersingular_j_zero():
    F4 = GF(4)
    E = elliptic.gamma1_3_curve(F4, F4.zero(), F4.one())
    j = elliptic.j_invariant(E)
    assert F4.is_zero(j)


@pytest.mark.parametrize("q,A,B,expected", [
    (2, 1, 0, NODAL),
    (2, 0, 1, SMOOTH_SUPERSINGULAR),
    (2, 0, 0, ADDITIVE),
])
def test_reduction_examples(q, A, B, expected):
    F = GF(q)
    E = elliptic.gamma1_3_curve(F, F.from_int(A), F.from_int(B))
    assert elliptic.reduction_type(E) == expected


def test_reduction_ordinary_over_gf4():
    F4 = GF(4)
    E = elliptic.gamma1_3_curve(F4, F4.one(), F4.gen())
    assert elliptic.reduction_type(E) == SMOOTH_ORDINARY


def test_reduction_exhaustive_supersingular_locus():
    for q in (2, 4, 8):
        F = GF(q)
        for A in F.elements():
            for B in F.elements():
                if F.is_zero(A) and F.is_zero(B):
                    continue
                t = elliptic.reduction_type(elliptic.gamma1_3_curve(F, A, B))
                if t == SMOOTH_SUPERSINGULAR:
                    assert F.is_zero(A)
                if not F.is_zero(A) and t not in (NODAL,):
                    assert t == SMOOTH_ORDINARY


def smooth_fibers(q):
    F = GF(q)
    for A in F.elements():
        for B in F.elements():
            E = elliptic.gamma1_3_curve(F, A, B)
            if not F.is_zero(elliptic.invariants(E).disc):
                yield E


def run_check(cid):
    check = next(c for c in REGISTRY if c.id == cid)
    return check.fn(RunConfig(), random.Random(0))


@pytest.mark.parametrize("q", [2, 4, 8])
def test_two_series_is_f_of_x_x_on_every_smooth_fiber(q):
    fibers = list(smooth_fibers(q))
    assert len(fibers) == {2: 1, 4: 9, 8: 49}[q]
    for E in fibers:
        for N in range(2, 6):
            two = elliptic.two_series(E, N)
            assert two.prec == N + 1
            assert _typed(two) == _typed(two_series_oracle(E, N))


def test_two_series_of_the_tate_curve():
    """F = x + y - xy on y^2 + xy = x^3 over Z, so [2](x) = 2x - x^2."""
    E = elliptic.gamma1_3_curve(ZZ, 1, 0)
    for N in range(1, 9):
        two = elliptic.two_series(E, N)
        assert two.prec == N + 1
        assert two == SeriesCtx(ZZ, ("z",), N + 1).series({(1,): 2, (2,): -1})


@pytest.mark.parametrize("E", [
    elliptic.curve(ModularIntegers(8), 3, 5, 7, 2, 6),
    elliptic.curve(QQ, Fraction(1, 2), Fraction(-3), Fraction(2, 5), Fraction(7), Fraction(-1, 3)),
], ids=["Z/8", "Q"])
def test_two_series_with_every_coefficient_nonzero(E):
    assert all(not E.ring.is_zero(a) for a in E.coefficients())
    for N in range(1, 9):
        two = elliptic.two_series(E, N)
        assert two.prec == N + 1
        assert _typed(two) == _typed(two_series_oracle(E, N))
        assert elliptic.two_series(E, N + 1).truncate(N + 1) == two


def test_automorphism_group_matches_the_brute_force():
    F4, F7, F8 = GF(4), GF(7), GF(8)
    w = F4.gen()
    C = elliptic.curve(F4, F4.zero(), F4.zero(), F4.one(), F4.zero(), F4.zero())
    curves = [C, *smooth_fibers(2), *smooth_fibers(4),
              elliptic.gamma1_3_curve(F8, F8.one(), F8.gen()),
              # a2 != 0, and an odd characteristic, where the unit powers
              # in A1 and A2 are seen
              elliptic.transform(C, w, w, F4.one(), w),
              elliptic.transform(elliptic.curve(F7, 0, 0, 0, 0, 1), 3, 2, 5, 4)]
    for E in curves:
        assert elliptic.automorphism_group(E) == automorphism_group_oracle(E)
    assert [len(elliptic.automorphism_group(E)) for E in curves[-2:]] == [24, 6]


def drop_terms(monkeypatch, *degrees):
    two_series = elliptic.two_series

    def dropped(E, N):
        s = two_series(E, N)
        return Series(s.ctx, {e: c for e, c in s.terms.items() if e[0] not in degrees})

    monkeypatch.setattr(elliptic, "two_series", dropped)


def test_reduction_table_fails_without_the_z2_term(monkeypatch):
    """Negative control: with c2 dropped an ordinary fiber reads as height 2."""
    run_check("ell.reduction-table")
    drop_terms(monkeypatch, 2)
    with pytest.raises(AlgebraError, match="height-2 series but j != 0"):
        run_check("ell.reduction-table")


def test_reduction_table_classifies_each_fiber_once(monkeypatch):
    """The 81 fibers (A, B) != (0, 0) over GF(2), GF(4), GF(8) are each
    classified once; the chart A = 1 is among them, so it is not classified
    again."""
    reduction_type, calls = elliptic.reduction_type, []

    def counted(E):
        calls.append(E)
        return reduction_type(E)

    monkeypatch.setattr(elliptic, "reduction_type", counted)
    run_check("ell.reduction-table")
    assert len(calls) == 3 + 15 + 63


def test_reduction_table_refuses_a_supersingular_chart_fiber(monkeypatch):
    """Negative control: the chart fiber (1, 1) over GF(2) read as
    supersingular fails the sweep, which covers the chart A = 1."""
    reduction_type = elliptic.reduction_type

    def chart_supersingular(E):
        if isinstance(E.ring, ModularIntegers) and (E.a1, E.a3) == (1, 1):   # GF(2)
            return SMOOTH_SUPERSINGULAR
        return reduction_type(E)

    monkeypatch.setattr(elliptic, "reduction_type", chart_supersingular)
    with pytest.raises(CheckFailure, match="supersingular off A=0 over GF\\(2\\)"):
        run_check("ell.reduction-table")


def test_reduction_table_fails_without_the_z2_and_z4_terms(monkeypatch):
    drop_terms(monkeypatch, 2, 4)
    with pytest.raises(AlgebraError, match="vanishes to precision"):
        run_check("ell.reduction-table")


def test_aut_supersingular_fails_when_every_curve_matches(monkeypatch):
    """Negative control: A1 and A2 alone leave 48 candidates, not 24."""
    run_check("ell.aut-supersingular")
    monkeypatch.setattr(elliptic, "curves_equal", lambda E1, E2: True)
    with pytest.raises(CheckFailure, match="automorphism count 48 != 24"):
        run_check("ell.aut-supersingular")


def test_closure_check_catches_a_wrong_composition(monkeypatch):
    compose = elliptic.compose_transforms

    def perturbed(R, g, h):
        u, r, s, t = compose(R, g, h)
        return (u, R.add(r, R.one()), s, t)

    monkeypatch.setattr(elliptic, "compose_transforms", perturbed)
    with pytest.raises(AlgebraError, match="not closed under composition"):
        run_check("ell.aut-supersingular")


def test_aut_supersingular_fails_without_a_product_of_two_others(monkeypatch):
    """Negative control: with the search's second match rejected (the first
    is the identity), the found set misses -1 = (1, 0, 0, 1), the square of
    (1, 1, 1, w), and is not closed."""
    F4 = GF(4)
    C = elliptic.curve(F4, F4.zero(), F4.zero(), F4.one(), F4.zero(), F4.zero())
    full = automorphism_group_oracle(C)
    missing = full[1]
    assert missing != full[0] and missing == (F4.one(), F4.zero(), F4.zero(), F4.one())
    assert missing in {elliptic.compose_transforms(F4, g, h)
                       for g in full for h in full if missing not in (g, h)}
    equal = elliptic.curves_equal
    matches = []

    def second_rejected(E1, E2):
        if not equal(E1, E2):
            return False
        matches.append(E1)
        return len(matches) != 2

    monkeypatch.setattr(elliptic, "curves_equal", second_rejected)
    with pytest.raises(AlgebraError, match="not closed under composition"):
        run_check("ell.aut-supersingular")


def _closed_all_pairs(R, S):
    keyed = set(S)
    return all(elliptic.compose_transforms(R, g, h) in keyed for g in S for h in S)


@pytest.mark.parametrize("keep", [
    range(24), range(8), range(2), range(1), (0, 8, 16), range(3), range(12),
    range(1, 24), [k for k in range(24) if k != 1], (), (0, 9),
], ids=lambda keep: ",".join(map(str, keep)) or "none")
def test_automorphism_closure_raises_where_all_pairs_do(monkeypatch, keep):
    """The closure proven from generators raises exactly when some pair of
    the found set composes outside it.  The search keeps only the matches
    whose indices are in `keep`: the first 24, 8, 2 and 1 and (0, 8, 16)
    are subgroups of the order-24 group, the empty set gives [], and the
    rest are not closed."""
    F4 = GF(4)
    C = elliptic.curve(F4, F4.zero(), F4.zero(), F4.one(), F4.zero(), F4.zero())
    full = elliptic.automorphism_group(C)
    kept = [full[k] for k in keep]
    equal = elliptic.curves_equal
    matches = []

    def only_kept(E1, E2):
        if not equal(E1, E2):
            return False
        matches.append(E1)
        return len(matches) - 1 in keep

    monkeypatch.setattr(elliptic, "curves_equal", only_kept)
    if _closed_all_pairs(F4, kept):
        assert elliptic.automorphism_group(C) == kept
    else:
        with pytest.raises(AlgebraError, match="not closed under composition"):
            elliptic.automorphism_group(C)


def test_formal_group_unit_axiom_and_low_terms(family):
    E, P = family
    A = P.gen("A")
    F = elliptic.formal_group_of_curve(E, 6)
    assert F.coefficient((1, 1)) == -A
    assert F.coefficient((2, 1)).is_zero()
    # z-restriction (unit axiom) is asserted inside the constructor


def test_formal_group_tate_is_multiplicative():
    T = elliptic.gamma1_3_curve(ZZ, 1, 0)
    F = elliptic.formal_group_of_curve(T, 9).rename(("x", "y"))
    M = fgl.conic_fgl(ZZ, -1, 0, 8)
    assert F.truncate(9) == M.F


def test_formal_group_weight_homogeneous(family):
    E, P = family
    F = elliptic.formal_group_of_curve(E, 7)
    for e, c in F.terms.items():
        assert c.is_homogeneous()
        assert c.wdegree() in (None, sum(e) - 1)


def test_curve_log_values():
    P = PolyRing(QQ, ("A", "B"), weights=(1, 3))
    E = elliptic.gamma1_3_curve(P, P.gen("A"), P.gen("B"))
    l = elliptic.curve_log(E, 5)
    A, B = P.gen("A"), P.gen("B")
    assert l.ucoeff(1) == P.one()
    assert l.ucoeff(2) == A * Fraction(1, 2)
    assert l.ucoeff(3) == (A * A) * Fraction(1, 3)
    assert l.ucoeff(4) == (B * 2 + A ** 3) * Fraction(1, 4)


# -- the chord and its negation against the reference constructions ----------

def q_curve(*a):
    return elliptic.curve(QQ, *(Fraction(v) for v in a))


def family_lift(bprec):
    """The level-3 family on the chart A = 1 over Q[[b]], as two_adic_family_fgl
    carries it."""
    S = SeriesRing(QQ, "b", bprec)
    return elliptic.gamma1_3_curve(S, S.one(), S.gen())


# two curves with every a_i nonzero (the family has a2 = a4 = a6 = 0):
# y^2 - xy - y = x^3 + 3x^2 + 5x - 10 with T = (1, 1) of order 2, and
# y^2 + xy + 3y = x^3 - 2x^2 + 5x + 14 with T = (2, 3), not 2-torsion
POINTED_CURVES = [
    (q_curve(-1, 3, -1, 5, -10), (Fraction(1), Fraction(1))),
    (q_curve(1, -2, 3, 5, 14), (Fraction(2), Fraction(3))),
]


def test_sum_with_point_matches_the_laurent_chord():
    """The (z, w)-plane chord with a fixed point and its negation give, value
    for value and type for type, what the chord on (X, Y) with its poles
    kept as powers of z gives: on the family lift with its 2-torsion point,
    and on two curves over Q."""
    for bprec, N in [(8, 9), (5, 7), (6, 8), (8, 10), (10, 11), (10, 16)]:
        E = family_lift(bprec)
        x0, y0 = fgl._formal_two_torsion(E)
        got = elliptic.sum_with_point(E, x0, y0, N)
        assert got.prec == N
        assert _typed(got) == _typed(sum_with_point_oracle(E, x0, y0, N))
    for E, (x0, y0) in POINTED_CURVES:
        assert elliptic.on_curve(E, (x0, y0))
        for N in range(1, 12):
            got = elliptic.sum_with_point(E, x0, y0, N)
            assert _typed(got) == _typed(sum_with_point_oracle(E, x0, y0, N))


def test_sum_with_point_needs_a_unit_formal_coordinate():
    """(0, 1) on y^2 + xy - 2y = x^3 - 1 has formal coordinate -x0/y0 = 0, so
    the chord's slope (w - w0)/(z - z0) divides by z: NotInvertible."""
    E = q_curve(1, 0, -2, 0, -1)
    T = (Fraction(0), Fraction(1))
    assert elliptic.on_curve(E, T)
    with pytest.raises(NotInvertible):
        elliptic.sum_with_point(E, *T, 6)


def test_curve_log_matches_the_laurent_log():
    """The integral of dz/G_w equals, value for value and type for type, the
    log read through the power series w/z^3, for N = 2..14: over Q, over
    Q[[b]] at four b-precisions and on the Tate curve."""
    curves = [E for E, _ in POINTED_CURVES]
    curves += [family_lift(bprec) for bprec in (1, 3, 5, 8)]
    curves.append(elliptic.gamma1_3_curve(QQ, Fraction(1), Fraction(0)))
    for E in curves:
        for N in range(2, 15):
            got = elliptic.curve_log(E, N)
            assert got.prec == N + 1
            assert _typed(got) == _typed(curve_log_oracle(E, N))


def test_w_series_matches_the_fixed_point_oracle():
    """The Newton w-series, which builds no term with a zero coefficient,
    equals value for value and type for type the fixed point at full
    precision: on two curves over Q with every a_i nonzero, and on the family
    over Z[[b]] and Q[[b]], where a2 = a4 = a6 = 0."""
    curves = [E for E, _ in POINTED_CURVES]
    curves += [chart_curve(N) for N in (6, 12, 20)] + [family_lift(bprec) for bprec in (1, 5, 10)]
    for E in curves:
        for prec in (1, 4, 5, 8, 9, 16, 17):
            got = elliptic.curve_w_series(E, prec)
            assert _typed(got) == _typed(curve_w_series_oracle(E, prec))


def test_w_series_scales_by_no_zero_coefficient(monkeypatch):
    """On the family over Q[[b]] (a2 = a4 = a6 = 0) no term of the w-series
    is built only to be scaled by zero."""
    scalars = []
    scale = Series.scale

    def recorded(self, c):
        scalars.append(self.ctx.ring.is_zero(c))
        return scale(self, c)

    monkeypatch.setattr(Series, "scale", recorded)
    E = family_lift(10)
    elliptic.curve_w_series(E, 16)
    assert scalars and not any(scalars)


def chart_curve(N):
    S = SeriesRing(ZZ, "b", max(N - 1, 0) // 3 + 1)
    return elliptic.gamma1_3_curve(S, S.one(), S.gen())


def chart_transition_curve():
    R = PolyRing(Z_local(2), ("a",), laurent=("a",))
    return elliptic.gamma1_3_curve(R, R.one(), R.gen("a", -3))


LAW_CURVES = {
    "Z[[b]] chart, N = 6": (lambda: chart_curve(6), 6),
    "Z[[b]] chart, N = 9": (lambda: chart_curve(9), 9),
    "Z[[b]] chart, N = 12": (lambda: chart_curve(12), 12),
    "Z[[b]] chart, N = 20": (lambda: chart_curve(20), 20),
    "Z[A, B]": (lambda: elliptic.universal_gamma1_3()[0], 8),
    "Z_(2)[a^+-1]": (chart_transition_curve, 8),
    "GF(4)": (lambda: elliptic.gamma1_3_curve(GF(4), GF(4).gen(), GF(4).one()), 7),
    "Q": (lambda: q_curve(1, -2, 3, 5, 14), 8),
    "Q[[b]]": (lambda: family_lift(5), 8),
}


@pytest.mark.parametrize("name", LAW_CURVES)
def test_formal_group_of_curve_matches_the_inverse_composed_with_the_chord(name):
    """The negation of the chord's third point gives, value for value and type
    for type, the formal inverse composed with that point's z."""
    make, N = LAW_CURVES[name]
    E = make()
    assert _typed(elliptic.formal_group_of_curve(E, N)) == _typed(formal_group_of_curve_oracle(E, N))


def test_the_chord_law_and_the_log_compose_and_differentiate_nothing(monkeypatch):
    """formal_group_of_curve and two_series make no Series.compose call, and
    curve_log no Series.derivative call."""
    calls = []
    compose, derivative = Series.compose, Series.derivative

    def counted_compose(self, subs):
        calls.append("compose")
        return compose(self, subs)

    def counted_derivative(self, name=None):
        calls.append("derivative")
        return derivative(self, name)

    monkeypatch.setattr(Series, "compose", counted_compose)
    monkeypatch.setattr(Series, "derivative", counted_derivative)
    E = q_curve(1, -2, 3, 5, 14)
    elliptic.formal_group_of_curve(E, 8)
    elliptic.formal_group_of_curve(chart_curve(9), 9)
    assert calls == []
    elliptic.two_series(E, 8)
    assert calls == ["derivative"]
    calls.clear()
    elliptic.curve_log(E, 8)
    elliptic.curve_log(family_lift(5), 8)
    assert calls == []


def test_three_torsion(family):
    E, P = family
    assert elliptic.three_torsion_check(E, (P.zero(), P.zero()))
    F4 = GF(4)
    C = elliptic.curve(F4, F4.zero(), F4.zero(), F4.one(), F4.zero(), F4.zero())
    assert elliptic.three_torsion_check(C, (F4.zero(), F4.zero()))
    EQ = elliptic.curve(QQ, QQ.one(), QQ.zero(), QQ.one(), QQ.zero(), QQ.one())
    assert not elliptic.three_torsion_check(EQ, (Fraction(-1), Fraction(0)))
    with pytest.raises(NotOnCurve):
        elliptic.three_torsion_check(EQ, (Fraction(5), Fraction(5)))


def test_three_torsion_matches_the_doubling_oracle():
    """At every affine point of every fiber y^2 + Axy + By = x^3 over GF(2),
    GF(4) and GF(8), singular fibers and points of order 2 included, at
    y^2 + y = x^3 over GF(4), and at the Q control point."""
    curves = [elliptic.gamma1_3_curve(F, A, B)
              for F in (GF(2), GF(4), GF(8)) for A in F.elements() for B in F.elements()]
    F4 = GF(4)
    curves.append(elliptic.curve(F4, F4.zero(), F4.zero(), F4.one(), F4.zero(), F4.zero()))
    seen = set()
    for E in curves:
        els = E.ring.elements()
        for P in ((x, y) for x in els for y in els):
            if not elliptic.on_curve(E, P):
                with pytest.raises(NotOnCurve):
                    elliptic.three_torsion_check(E, P)
                continue
            got = elliptic.three_torsion_check(E, P)
            assert got == three_torsion_oracle(E, P), (E, P)
            # the vertical tangent: 2y + a1 x + a3 = 0
            vertical = E.ring.is_zero(elliptic.tangent_gradient(E, P)[1])
            seen.add((got, vertical))
    assert seen == {(True, False), (False, False), (False, True)}
    EQ = elliptic.curve(QQ, QQ.one(), QQ.zero(), QQ.one(), QQ.zero(), QQ.one())
    P = (Fraction(-1), Fraction(0))
    assert elliptic.three_torsion_check(EQ, P) is three_torsion_oracle(EQ, P) is False


def _random_scalar(R, rng):
    """A small random element of Q, Z[1/3], Z[1/3][w] or Q[beta^+-1]."""
    over_q = R is QQ or isinstance(R, PolyRing)

    def frac():
        den = rng.randint(1, 6) if over_q else 3 ** rng.randint(0, 2)
        return Fraction(rng.randint(-9, 9), den)
    if isinstance(R, PolyRing):
        return R.poly({(rng.randint(-2, 2),): frac() for _ in range(rng.randint(1, 2))})
    if isinstance(R, QuotientExtension):
        return (frac(), frac())
    return frac()


def _typed_deep(v):
    """_typed, also inside the coordinate tuples of Z[1/3][w]."""
    return tuple(map(_typed_deep, v)) if isinstance(v, tuple) else _typed(v)


def _nodal_curve(R, rng):
    """Y^2 + bXY + cX^2 = X^3, c4 = (b^2 - 4c)^2 != 0, moved by x = X + x0,
    y = Y - sX + y0 (r = -x0, t = -y0 - s x0) to the node (x0, y0)."""
    b, x0, y0, s = (_random_scalar(R, rng) for _ in range(4))
    if isinstance(R, PolyRing):
        # b^2 - 4c a unit monomial, so c4 is a unit of Q[beta^+-1]
        q = R.poly({(rng.randint(-3, 3),): Fraction(rng.choice([-3, -1, 1, 2, 5]))})
        c = R.mul(R.sub(R.mul(b, b), q), R.const(Fraction(1, 4)))
    else:
        c = _random_scalar(R, rng)
        while R.is_zero(R.sub(R.mul(b, b), R.scale_int(c, 4))):
            c = _random_scalar(R, rng)
    E = elliptic.curve(R, b, R.neg(c), R.zero(), R.zero(), R.zero())
    r, t = R.neg(x0), R.sub(R.neg(y0), R.mul(s, x0))
    return elliptic.transform(E, R.one(), r, s, t), (x0, y0)


@pytest.mark.parametrize("name", ["Q", "Z[1/3]", "Z[1/3][w]", "Q[beta^+-1]"])
def test_find_node_closed_form_matches_the_gcd_oracle(name):
    R = {"Q": QQ, "Z[1/3]": Z_inverted(3), "Z[1/3][w]": omega_ring(),
         "Q[beta^+-1]": PolyRing(QQ, ("beta",), laurent=("beta",))}[name]
    rng = random.Random(f"find_node {name}")
    for _ in range(30):
        E, node = _nodal_curve(R, rng)
        got = elliptic.find_node(E)
        assert _typed_deep(got) == _typed_deep(find_node_oracle(E))
        assert all(R.eq(a, b) for a, b in zip(got, node))


def test_automorphisms_supersingular():
    F4 = GF(4)
    C = elliptic.curve(F4, F4.zero(), F4.zero(), F4.one(), F4.zero(), F4.zero())
    aut = elliptic.automorphism_group(C)
    assert len(aut) == 24
    w = F4.gen()
    g = (w, F4.zero(), F4.zero(), F4.zero())
    assert elliptic.transform_order(F4, g) == 3
    assert elliptic.curves_equal(elliptic.transform(C, *g), C)


def test_automorphisms_ordinary():
    F4 = GF(4)
    C = elliptic.gamma1_3_curve(F4, F4.one(), F4.gen())
    assert len(elliptic.automorphism_group(C)) == 2


def test_node_appendix_curve():
    R = Z_inverted(3)
    E = elliptic.curve(R, Fraction(3), Fraction(0), Fraction(1), Fraction(0),
                       Fraction(0))
    nd = elliptic.node_uniformization(E, N=8)
    assert nd.node == (Fraction(-1), Fraction(1))
    num, den = nd.law.as_fraction()
    t, u = num.pring.gen("t"), num.pring.gen("u")
    assert num == t * u - 3
    assert den == t + u + 3
    # group law spot check: t(0,0) = -1 doubles to t(0,-1) = -2
    at = {"__ring__": num.pring, "t": num.pring.const(Fraction(-1)),
          "u": num.pring.const(Fraction(-1))}
    assert num.substitute(at) == -2 and den.substitute(at) == 1
    conic = fgl.conic_fgl(R, Fraction(3), Fraction(3), 8)
    assert nd.fgl_at_infinity.F == conic.F


def test_node_tate_curve():
    E = elliptic.curve(QQ, QQ.one(), QQ.zero(), QQ.zero(), QQ.zero(), QQ.zero())
    nd = elliptic.node_uniformization(E, N=6)
    assert nd.node == (Fraction(0), Fraction(0))
    assert nd.law.b == 1 and nd.law.c == 0


def test_node_beta_curve():
    P = PolyRing(QQ, ("beta",), laurent=("beta",))
    E = elliptic.gamma1_3_curve(P, P.gen("beta"), P.zero())
    nd = elliptic.node_uniformization(E, N=6)
    assert nd.node == (P.zero(), P.zero())
    assert nd.law.b == P.gen("beta") and nd.law.c.is_zero()


def test_node_over_omega_ring_descends_each_coordinate():
    # node (1/3 + w/9, 0) on y^2 = x^3 + a2 x^2 + a4 x + a6 over Z[1/3][w]
    T = omega_ring()
    x0 = (Fraction(1, 3), Fraction(1, 9))
    sq = T.mul(x0, x0)
    a2 = T.sub(T.one(), T.scale_int(x0, 3))
    a4 = T.sub(T.scale_int(sq, 3), T.scale_int(x0, 2))
    a6 = T.sub(sq, T.mul(sq, x0))
    E = elliptic.curve(T, T.zero(), a2, T.zero(), a4, a6)
    assert elliptic.find_node(E) == (x0, T.zero())


def test_node_refused_on_smooth_or_additive():
    with pytest.raises(NotNodal):
        elliptic.node_uniformization(elliptic.gamma1_3_curve(QQ, Fraction(1),
                                                             Fraction(1)))
    F2 = GF(2)
    with pytest.raises(NotNodal):
        elliptic.node_uniformization(elliptic.gamma1_3_curve(F2, F2.zero(),
                                                             F2.zero()))


def test_transform_composition():
    F4 = GF(4)
    C = elliptic.curve(F4, F4.zero(), F4.zero(), F4.one(), F4.zero(), F4.zero())
    aut = elliptic.automorphism_group(C)
    g, h = aut[3], aut[5]
    comp = elliptic.compose_transforms(F4, g, h)
    one_step = elliptic.transform(elliptic.transform(C, *h), *g)
    assert elliptic.curves_equal(one_step, elliptic.transform(C, *comp))
