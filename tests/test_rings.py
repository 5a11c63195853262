import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromalg.convert import descend_scalar, fraction_mod
from chromalg.errors import IntegralityFailure, NotInvertible
from chromalg.poly import Poly, PolyRing
from chromalg.rings import (GF, ModularIntegers, PrimeField, QQ,
                            QuotientExtension, Z_inverted, Z_local, ZZ,
                            omega_ring, sqrt_minus3)
from chromalg.series import Series, SeriesCtx, SeriesRing

import oracles
from chromalg import fgl, kforms, linalg
from chromalg.rings import _valuation
from oracles import dot_loop_oracle, quotient_mul_oracle


def test_localized_at_two_rejects_even_denominators():
    R = Z_local(2)
    with pytest.raises(ValueError):
        R.check(Fraction(1, 2))
    with pytest.raises(ValueError):
        R.check(Fraction(3, 6))
    for d in (1, 3, 5, 7, 9, 11):
        assert R.check(Fraction(1, d)) == Fraction(1, d)


def test_localized_units():
    R2 = Z_local(2)
    assert R2.is_unit(Fraction(3, 5)) and not R2.is_unit(Fraction(2, 5))
    R3 = Z_inverted(3)
    assert R3.is_unit(Fraction(9)) and R3.is_unit(Fraction(1, 27))
    assert not R3.is_unit(Fraction(2))
    cands = R3.unit_candidates(2)
    assert Fraction(9) in cands and Fraction(-1, 3) in cands


@pytest.mark.parametrize("R", [QQ, Z_local(2), Z_inverted(3)], ids=repr)
def test_rational_inverse_value_and_type(R):
    """inv gives the Fraction 1/a, as 1 / Fraction(a) does, for int and
    Fraction units of either sign; zero still raises."""
    for a in (1, -1, 3, -9, 27, Fraction(5, 9), Fraction(-7, 3), Fraction(1, 3),
              Fraction(-1, 27)):
        if not R.is_unit(a):
            continue
        got = R.inv(a)
        assert got == 1 / Fraction(a) and type(got) is Fraction
        assert R.mul(got, a) == 1
    for zero in (0, Fraction(0)):
        with pytest.raises(NotInvertible):
            R.inv(zero)


def test_modular_and_prime_fields():
    Z8 = ModularIntegers(8)
    assert Z8.inv(5) == 5 and Z8.nilpotent_bound() == 3
    assert Z8.solve_int(2, 6) == [3, 7]
    assert Z8.solve_int(2, 5) == []
    F7 = PrimeField(7)
    assert F7.mul(F7.inv(3), 3) == 1
    with pytest.raises(ValueError):
        PrimeField(6)


def test_gf4_and_gf8():
    F4 = GF(4)
    w = F4.gen()
    assert F4.eq(F4.pow(w, 3), F4.one())
    assert len(F4.elements()) == 4
    assert all(F4.is_unit(e) for e in F4.elements() if not F4.is_zero(e))
    F8 = GF(8)
    g = F8.gen()
    assert F8.eq(F8.pow(g, 7), F8.one())
    assert len(F8.elements()) == 8


def test_quotient_extension_monic_required():
    with pytest.raises(ValueError):
        QuotientExtension(ZZ, (1, 1, 2))


def test_omega_ring_sqrt_minus_three():
    W = omega_ring()
    s3 = sqrt_minus3(W)
    assert W.eq(W.mul(s3, s3), W.from_int(-3))
    assert W.is_unit(s3)           # norm 3 is inverted
    inv = W.inv(s3)
    assert W.eq(W.mul(inv, s3), W.one())
    cands = W.unit_candidates(1)
    assert any(W.eq(u, s3) for u in cands)


@pytest.mark.parametrize("ring,sampler", [
    (ZZ, lambda rng: rng.randint(-50, 50)),
    (QQ, lambda rng: Fraction(rng.randint(-20, 20), rng.randint(1, 9))),
    (ModularIntegers(12), lambda rng: rng.randint(0, 11)),
    (GF(4), None),
])
def test_ring_axioms_randomized(ring, sampler):
    rng = random.Random(0)
    if sampler is None:
        elems = ring.elements()
        sample = lambda: rng.choice(elems)
    else:
        sample = lambda: sampler(rng)
    for _ in range(1000):
        a, b, c = sample(), sample(), sample()
        assert ring.eq(ring.add(ring.add(a, b), c), ring.add(a, ring.add(b, c)))
        assert ring.eq(ring.mul(ring.mul(a, b), c), ring.mul(a, ring.mul(b, c)))
        assert ring.eq(ring.mul(a, ring.add(b, c)),
                       ring.add(ring.mul(a, b), ring.mul(a, c)))
        assert ring.eq(ring.mul(a, b), ring.mul(b, a))


# -- ring axioms on the composite carriers ------------------------------------

def _series_ring(k, prec):
    """Z/2^k[[b]] to b-precision prec; dense draws take the packed product."""
    R = SeriesRing(ModularIntegers(2 ** k), "b", prec)
    coeffs = st.lists(st.integers(0, 2 ** k - 1), min_size=prec, max_size=prec)
    return R, coeffs.map(lambda cs: R.ctx.series({(i,): c for i, c in enumerate(cs)}))


def _omega():
    W = omega_ring()
    coord = st.builds(lambda n, j: Fraction(n, 3 ** j), st.integers(-30, 30), st.integers(0, 2))
    return W, st.tuples(coord, coord)


def _laurent():
    """Z[a, a^-1, s]: a invertible, s not."""
    P = PolyRing(ZZ, ("a", "s"), laurent=("a",))
    term = st.tuples(st.tuples(st.integers(-3, 3), st.integers(0, 3)), st.integers(-5, 5))
    return P, st.lists(term, max_size=4).map(lambda ts: P.poly(dict(ts)))


AXIOM_RINGS = {
    "Z/2[[b]]<4>": _series_ring(1, 4),
    "Z/8[[b]]<3>": _series_ring(3, 3),
    "Z/16[[b]]<6>": _series_ring(4, 6),
    "omega": _omega(),
    "GF(4)": (GF(4), st.sampled_from(GF(4).elements())),
    "Z[a^+-1, s]": _laurent(),
}


def _canonical(R, v):
    """v is in R's normal form: series at the ring's precision with reduced,
    nonzero coefficients; tuples of the modulus degree; polynomials without
    zero terms."""
    if isinstance(R, SeriesRing):
        m = R.base.m
        return (isinstance(v, Series) and v.prec == R.prec
                and all(0 < c < m for c in v.terms.values()))
    if isinstance(R, QuotientExtension):
        return isinstance(v, tuple) and len(v) == R.deg
    return isinstance(v, Poly) and all(c != 0 for c in v.terms.values())


@pytest.mark.parametrize("name", sorted(AXIOM_RINGS))
@settings(max_examples=100, deadline=None)
@given(data=st.data(), m=st.integers(-7, 7), n=st.integers(-7, 7))
def test_composite_ring_axioms(name, data, m, n):
    """Commutative ring axioms, identities, negation and the integer map,
    with every result in normal form."""
    R, elem = AXIOM_RINGS[name]
    a, b, c = (data.draw(elem) for _ in range(3))
    add, mul, eq = R.add, R.mul, R.eq
    results = [add(a, b), mul(a, b), R.sub(a, b), R.neg(a), R.scale_int(a, m)]
    assert all(_canonical(R, v) for v in results)
    assert eq(add(add(a, b), c), add(a, add(b, c)))
    assert eq(mul(mul(a, b), c), mul(a, mul(b, c)))
    assert eq(add(a, b), add(b, a)) and eq(mul(a, b), mul(b, a))
    assert eq(mul(a, add(b, c)), add(mul(a, b), mul(a, c)))
    assert eq(mul(add(a, b), c), add(mul(a, c), mul(b, c)))
    assert eq(add(a, R.zero()), a) and eq(mul(a, R.one()), a) and eq(mul(R.one(), a), a)
    assert R.is_zero(mul(a, R.zero())) and R.is_zero(add(a, R.neg(a)))
    assert eq(R.sub(a, b), add(a, R.neg(b)))
    assert eq(R.from_int(m + n), add(R.from_int(m), R.from_int(n)))
    assert eq(R.from_int(m * n), mul(R.from_int(m), R.from_int(n)))
    assert eq(R.scale_int(a, m), mul(R.from_int(m), a))


def test_divide_semantics():
    assert ZZ.divide(6, 3) == 2 and ZZ.divide(7, 3) is None
    Z8 = ModularIntegers(8)
    assert Z8.divide(6, 2) in (3, 7)
    assert Z8.divide(1, 2) is None


def test_fraction_mod_needs_a_denominator_prime_to_m():
    for q in (Fraction(1, 2), Fraction(1, 6)):
        with pytest.raises(IntegralityFailure):
            fraction_mod(q, 8)
    assert fraction_mod(Fraction(1, 3), 8) == 3


def test_descend_scalar_keeps_each_coordinate():
    T = omega_ring()
    assert descend_scalar((Fraction(1, 3), Fraction(1, 9)), T) == (Fraction(1, 3), Fraction(1, 9))
    with pytest.raises(IntegralityFailure):
        descend_scalar(Fraction(1, 2), Z_local(2))


# -- the integer product of QuotientExtension ----------------------------------

def _fraction_coord():
    """int or Fraction coordinates, zeros of both kinds included."""
    return st.one_of(st.integers(-30, 30), st.sampled_from([0, Fraction(0)]),
                     st.builds(lambda n, j: Fraction(n, 3 ** j),
                               st.integers(-30, 30), st.integers(0, 3)))


def _residue_coord(m):
    """ints around [0, m), residues of every class and unreduced ones."""
    return st.integers(-m, 2 * m)


def _kforms_ring(p):
    return QuotientExtension(PrimeField(p), tuple(c % p for c in (1,) * p), gen_name="z")


PACKED_QUOTIENTS = {
    "omega": (omega_ring(), _fraction_coord()),
    "omega rationalized": (omega_ring().rationalize()[0], _fraction_coord()),
    "GF(4)": (GF(4), _residue_coord(2)),
    "GF(8)": (GF(8), _residue_coord(2)),
    "F3[z]/Phi3": (_kforms_ring(3), _residue_coord(3)),
    "F7[z]/Phi7": (_kforms_ring(7), _residue_coord(7)),
    "Z[y]/(y^3 - y + 2)": (QuotientExtension(ZZ, (2, -1, 0, 1)), st.integers(-40, 40)),
    "Z/8[y]/(y^3 + 5y^2 + 3)": (QuotientExtension(ModularIntegers(8), (3, 0, 5, 1)),
                                _residue_coord(8)),
}


@pytest.mark.parametrize("name", sorted(PACKED_QUOTIENTS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_quotient_mul_matches_the_loop(name, data):
    """QuotientExtension.mul equals the coefficient loop in every coordinate's
    value and Python type."""
    R, coord = PACKED_QUOTIENTS[name]
    assert R._ints is not None
    elem = st.lists(coord, min_size=R.deg, max_size=R.deg).map(tuple)
    a, b = data.draw(elem), data.draw(elem)
    got, want = R.mul(a, b), quotient_mul_oracle(R, a, b)
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]


FINITE_QUOTIENTS = {"GF(4)": GF(4), "GF(8)": GF(8), "F3[z]/Phi3": _kforms_ring(3)}


@pytest.mark.parametrize("name", sorted(FINITE_QUOTIENTS))
def test_finite_quotient_units_match_the_brute_force(name):
    """inv returns the one b with a*b = 1 and raises NotInvertible where there
    is none; is_unit agrees.  Elements are built here from the base's."""
    R = FINITE_QUOTIENTS[name]
    elems = [t[::-1] for t in itertools.product(R.base.elements(), repeat=R.deg)]
    assert R.elements() == elems
    units = 0
    for a in elems:
        inverses = [b for b in elems if R.eq(R.mul(a, b), R.one())]
        assert len(inverses) <= 1
        assert R.is_unit(a) == bool(inverses)
        if inverses:
            units += 1
            assert R.inv(a) == inverses[0]
        else:
            with pytest.raises(NotInvertible):
                R.inv(a)
    assert units == {"GF(4)": 3, "GF(8)": 7, "F3[z]/Phi3": 6}[name]


def test_finite_quotient_builds_its_elements_once(monkeypatch):
    R = _kforms_ring(3)
    calls = []
    base_elements = R.base.elements

    def counted():
        calls.append(1)
        return base_elements()

    monkeypatch.setattr(R.base, "elements", counted)
    for a in R.elements():
        R.is_unit(a)
    first = R.elements()
    first.clear()
    assert len(R.elements()) == 9 and R.elements() is not R.elements()
    assert calls == [1]
    with pytest.raises(NotImplementedError):
        omega_ring().elements()


def test_quotient_mul_over_a_series_ring_takes_the_loop(monkeypatch):
    """Over the dual numbers Z/4[[b]][e]/(e^2) the product is the loop, which
    multiplies in the base ring."""
    S = SeriesRing(ModularIntegers(4), "b", 4)
    R = QuotientExtension(S, (S.zero(), S.zero(), S.one()), gen_name="e")
    assert R._ints is None
    calls = []
    mul = SeriesRing.mul

    def counting(self, x, y):
        calls.append(1)
        return mul(self, x, y)
    monkeypatch.setattr(SeriesRing, "mul", counting)
    b = S.gen()
    u, v = (S.one() + b, b * b), (S.from_int(3), S.one() + b + b * b)
    got = R.mul(u, v)
    assert calls
    assert all(x == y for x, y in zip(got, quotient_mul_oracle(R, u, v)))


def test_quotient_mul_over_z_takes_the_loop_where_fractions_enter():
    """Over Z the loop mixes int and Fraction coordinates when a Fraction
    enters, from an operand or from the modulus; the integer product would
    give ints, so those products take the loop."""
    Rf = QuotientExtension(ZZ, (Fraction(1), Fraction(1), Fraction(1)))
    assert Rf._ints is None
    Z3 = PACKED_QUOTIENTS["Z[y]/(y^3 - y + 2)"][0]
    for R, a, b in [(Rf, (2, 3), (4, 5)),
                    (Z3, (Fraction(2), 0, 3), (1, 4, 5)),
                    (Z3, (1, 2, 3), (Fraction(-1), 0, Fraction(7)))]:
        got, want = R.mul(a, b), quotient_mul_oracle(R, a, b)
        assert got == want and [type(v) for v in got] == [type(v) for v in want]
        assert any(type(v) is Fraction for v in got)


SCALE_CARRIERS = {**AXIOM_RINGS, **{
    f"quotient {name}": (R, st.lists(coord, min_size=R.deg, max_size=R.deg).map(tuple))
    for name, (R, coord) in PACKED_QUOTIENTS.items()}}


@pytest.mark.parametrize("name", sorted(SCALE_CARRIERS))
@pytest.mark.parametrize("n", [0, 1, -3, 5, 16, -16])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_scale_int_is_the_product_by_the_integer(name, n, data):
    """scale_int(a, n) equals mul(a, from_int(n)) in value and in the Python
    types of its coefficients, for n = 0, negative n and n = 0 mod 2^k, on
    the carriers of the axiom test and on the integer-product quotients."""
    R, elem = SCALE_CARRIERS[name]
    a = data.draw(elem)
    assert typed(R.scale_int(a, n)) == typed(R.mul(a, R.from_int(n)))


def typed(v):
    """v with the Python type of every scalar in it: coordinates of a tuple,
    coefficients of a series or polynomial (and the series' precision)."""
    if isinstance(v, tuple):
        return [typed(c) for c in v]
    if hasattr(v, "terms"):
        return getattr(v, "prec", None), sorted((e, typed(c)) for e, c in v.terms.items())
    return type(v), v


def test_negative_exponents_raise():
    with pytest.raises(ValueError):
        ZZ.pow(2, -1)
    x = SeriesCtx(QQ, ("x",), 5).gen("x")
    with pytest.raises(ValueError):
        (1 + x) ** -1
    P = PolyRing(ZZ, ("t",))
    with pytest.raises(ValueError):
        (P.gen("t") + 1) ** -1


# -- sums of products ---------------------------------------------------------

_third = st.builds(lambda n, j: Fraction(n, 3 ** j), st.integers(-10 ** 6, 10 ** 6),
                   st.integers(0, 5))

DOT_SCALARS = {
    "Z": (ZZ, st.integers(-2 ** 80, 2 ** 80)),
    "Q": (QQ, st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 6))),
    "Q(int)": (QQ, st.integers(-10 ** 12, 10 ** 12)),
    "Q(int, Fraction)": (QQ, st.one_of(st.integers(-9, 9), st.sampled_from([0, Fraction(0)]),
                                       st.builds(Fraction, st.integers(-9, 9),
                                                 st.integers(1, 12)))),
    "Z_(2)": (Z_local(2), st.builds(lambda n, d: Fraction(n, 2 * d + 1),
                                    st.integers(-10 ** 9, 10 ** 9), st.integers(0, 10 ** 4))),
    "Z[1/3]": (Z_inverted(3), _third),
    "Z/8": (ModularIntegers(8), _residue_coord(8)),
    "F5": (PrimeField(5), _residue_coord(5)),
}

def _poly_ring(P, exps, coeff):
    """P with up to 5 terms, exponents from exps; P.poly drops zero
    coefficients."""
    term = st.tuples(exps, coeff)
    return P, st.lists(term, max_size=5).map(lambda ts: P.poly(dict(ts)))


_ab = st.tuples(st.integers(0, 3), st.integers(0, 2))

# the polynomial rings verify multiplies over: the universal law's Z[A, B],
# the chart transition's Z_(2)[a^+-1] and the rationalized Q[A, B], there
# with int and Fraction coefficients mixed
DOT_POLYS = {
    "Z[A, B]": _poly_ring(PolyRing(ZZ, ("A", "B"), weights=(1, 3)), _ab, DOT_SCALARS["Z"][1]),
    "Z_(2)[a^+-1]": _poly_ring(PolyRing(Z_local(2), ("a",), laurent=("a",)),
                               st.tuples(st.integers(-3, 3)), DOT_SCALARS["Z_(2)"][1]),
    "Q[A, B]": _poly_ring(PolyRing(QQ, ("A", "B"), weights=(1, 3)), _ab,
                          DOT_SCALARS["Q(int, Fraction)"][1]),
}

DOT_CARRIERS = {**DOT_SCALARS, **AXIOM_RINGS, **DOT_POLYS, **{
    f"quotient {name}": (R, st.lists(coord, min_size=R.deg, max_size=R.deg).map(tuple))
    for name, (R, coord) in PACKED_QUOTIENTS.items()}}


@pytest.mark.parametrize("name", sorted(DOT_CARRIERS))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(0, 9))
def test_dot_is_the_sum_of_products_loop(name, data, n):
    """R.dot(xs, ys) has the value and Python types of x1*y1 + ... + xn*yn
    summed by R.mul and R.add, R.zero() for n = 0, on the scalar rings and
    on every carrier of the axiom and integer-product tests."""
    R, elem = DOT_CARRIERS[name]
    xs = [data.draw(elem) for _ in range(n)]
    ys = [data.draw(elem) for _ in range(n)]
    got, want = R.dot(xs, ys), dot_loop_oracle(R, xs, ys)
    assert R.eq(got, want)
    assert typed(got) == typed(want)


@pytest.mark.parametrize("name", sorted(DOT_CARRIERS))
def test_dot_of_nothing_and_of_one_pair(name):
    R, _ = DOT_CARRIERS[name]
    assert typed(R.dot([], [])) == typed(R.zero())
    one, two = R.one(), R.from_int(2)
    assert typed(R.dot([two], [one])) == typed(R.mul(two, one))
    with pytest.raises(ValueError):
        R.dot([one], [])


def test_dot_over_q_polys_keeps_the_loop_where_sums_cancel():
    """Over Q[A, B] the loop's A coefficient 1 - 1 cancels to nothing before
    the int 2 arrives, so the loop gives the int 2 where one sum of the
    three products would give Fraction(2)."""
    P = DOT_POLYS["Q[A, B]"][0]
    xs = [P.poly({(1, 0): c}) for c in (1, Fraction(-1), 2)]
    ys = [P.one(), P.poly({(0, 0): 1}), P.poly({(0, 0): 1})]
    got = P.dot(xs, ys)
    assert typed(got) == typed(dot_loop_oracle(P, xs, ys)) == (None, [((1, 0), (int, 2))])


def test_dot_over_z_quotient_keeps_the_loop_where_fractions_enter():
    """A Fraction coordinate over Z[y]/(y^3 - y + 2): the loop's mixed int
    and Fraction coordinates, not the integer sum's ints."""
    R = PACKED_QUOTIENTS["Z[y]/(y^3 - y + 2)"][0]
    xs = [(1, 2, 3), (Fraction(2), 0, 3), (4, -1, 0)]
    ys = [(Fraction(-1), 0, 7), (1, 4, 5), (2, 2, 2)]
    got = R.dot(xs, ys)
    assert typed(got) == typed(dot_loop_oracle(R, xs, ys))
    assert any(type(v) is Fraction for v in got)


def test_valuation_matches_the_division_loops():
    """_valuation(n, p) and each of its callers agree with the division loop
    they replaced, on seeded nonzero integers of either sign; zero raises."""
    rng = random.Random(34)
    for _ in range(2000):
        p = rng.choice([2, 3, 5, 7, 13])
        n = rng.choice([1, -1]) * p ** rng.randint(0, 12) * rng.randint(1, 10 ** 6)
        assert _valuation(n, p) == oracles.valuation_loop_oracle(n, p)
    for p in (2, 3, 5):
        with pytest.raises(ValueError):
            _valuation(0, p)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        diag = [rng.choice([1, p, 6, 12, 27, 250]) * rng.randint(1, 9)
                for _ in range(rng.randint(0, 5))]
        ncols = len(diag) + rng.randint(0, 3)
        assert linalg.p_local_structure(diag, ncols, p) == \
            oracles.p_local_structure_oracle(diag, ncols, p)
    for m in range(2, 300):
        assert ModularIntegers(m).nilpotent_bound() == oracles.nilpotent_bound_oracle(m)
        if m % 2 == 0:
            R = ModularIntegers(m)
            for v in range(-m, 2 * m):
                assert fgl._two_b_valuation(v, R) == oracles.two_valuation_mod_oracle(v, m)
    for _ in range(500):
        q = Fraction(rng.choice([1, -1, 2, 5]) * 3 ** rng.randint(0, 5),
                     rng.choice([1, 2, 7]) * 3 ** rng.randint(0, 5))
        assert kforms._is_3_unit(q) == oracles.is_3_unit_oracle(q)
