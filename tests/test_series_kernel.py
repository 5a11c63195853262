"""Differential and operation-count tests for the series product: the
Kronecker-packed multiplication of series.py, its grouped loop _mul_dict and
its product by a one-term factor (a shift and a scale, only a shift for a
unit monomial) against the term-by-term loop of tests/oracles.py, for series
in one, two and three variables over Z, Q, Z_(p), Z[1/3], Z/m and F_p, over
one level of SeriesRing over those, over QuotientExtension rings of those
with an integral modulus, and over the carriers that take the loop."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chromalg import series as series_module
from chromalg.errors import MixedVariablesError
from chromalg.poly import PolyRing
from chromalg.rings import (GF, QQ, ZZ, LocalizedIntegers, ModularIntegers,
                            PrimeField, QuotientExtension, Rationals,
                            Z_inverted, Z_local, omega_ring)
from chromalg.series import Series, SeriesCtx, SeriesRing, _exponents, _mul_dict, _mul_packed

from oracles import mul_loop_oracle

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def exact(v):
    """Variables, precision, terms and scalar types, recursively: the packed
    product must give the loop's int or Fraction, not an equal value."""
    if isinstance(v, Series):
        return (v.ctx.vars, v.ctx.prec, {e: exact(c) for e, c in v.terms.items()})
    if isinstance(v, tuple):
        return tuple(exact(c) for c in v)
    return (type(v), v)


def density(a, b):
    """(E_a * E_b, S) as the multiplication contract states them, for
    operands of orders oa and ob < P - oa: E counts an operand's packed
    scalar entries, on a's terms of total degree < P - ob and b's of degree
    < P - oa, and S the slots its product spans from block (oa + ob)*P^(n-1).
    Exponent e of an operand of order o has index (|e| - o)*P^(n-1) + sum of
    e_k*P^(n-k) over k >= 2, and inner slot j of index i sits at slot i*r + j."""
    R, P, n = a.ctx.ring, a.ctx.prec, len(a.ctx.vars)
    if isinstance(R, SeriesRing):
        r, width = 2 * R.prec - 1, R.prec
        inner = lambda c: [j for (j,) in c.terms]
    elif isinstance(R, QuotientExtension):
        r = width = 2 * R.deg - 1
        inner = lambda c: list(range(R.deg))
    else:
        r = width = 1
        inner = lambda c: [0]
    oa, ob = a.order(), b.order()

    def index(e, o):
        return (sum(e) - o) * P ** (n - 1) + sum(e[k] * P ** (n - 1 - k) for k in range(1, n))

    def kept(s, other):
        return {e: c for e, c in s.terms.items() if sum(e) < P - other}

    def top(s, o):
        return (max(index(e, o) for e in s) * r
                + max(j for c in s.values() for j in inner(c)))

    def entries(s):
        return sum(len(inner(c)) for c in s.values())

    ka, kb = kept(a, ob), kept(b, oa)
    span = (P ** n - (oa + ob) * P ** (n - 1) - 1) * r + width
    return entries(ka) * entries(kb), min(span, top(ka, oa) + top(kb, ob) + 1)


def packs(a, b):
    """Whether the contract packs a * b: never with an operand of at most one
    term, on any carrier (a one-term factor is a shift and a scale); else a
    packed carrier (the callers' concern), and a product of order >= P, or
    E_a * E_b >= S."""
    if len(a.terms) <= 1 or len(b.terms) <= 1:
        return False
    if a.order() + b.order() >= a.ctx.prec:
        return True
    products, slots = density(a, b)
    return products >= slots


def traced_product(a, b):
    """a * b, and whether Series.__mul__ ran the packed product on a and b
    themselves, not on their coefficients."""
    packed = []
    real = series_module._mul_packed

    def spy(x, y):
        out = real(x, y)
        if x.ctx.ring is a.ctx.ring:
            packed.append(out is not None)
        return out
    series_module._mul_packed = spy
    try:
        prod = a * b
    finally:
        series_module._mul_packed = real
    return prod, packed == [True]


# -- scalars ------------------------------------------------------------------

_small_q = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
_tall_q = st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 25))

SCALARS = {
    "Z": (ZZ, st.integers(-2 ** 90, 2 ** 90)),
    "Q": (QQ, st.one_of(_small_q, _tall_q)),
    "Q(int)": (QQ, st.integers(-10 ** 12, 10 ** 12)),
    "Z_(2)": (Z_local(2), st.builds(lambda n, d: Fraction(n, 2 * d + 1),
                                   st.integers(-10 ** 20, 10 ** 20), st.integers(0, 10 ** 6))),
    "F3": (PrimeField(3), st.integers(0, 2)),
    "Z/8": (ModularIntegers(8), st.integers(0, 7)),
    "Z/2^64": (ModularIntegers(2 ** 64), st.integers(0, 2 ** 64 - 1)),
}


@st.composite
def series(draw, ctx, elems):
    """A univariate series in ctx: any support, so zero, sparse and dense."""
    terms = draw(st.dictionaries(st.integers(0, ctx.prec - 1), elems, max_size=ctx.prec))
    return ctx.series({(k,): c for k, c in terms.items()})


@st.composite
def tower_series(draw, ctx, elems, inner_prec=None):
    """An x-series over ctx.ring = base[[b]]; its coefficients sit at the
    ring's own context unless inner_prec asks for a lower precision."""
    R = ctx.ring
    inner = R.ctx if inner_prec is None else R.ctx.at_prec(inner_prec)
    degrees = draw(st.lists(st.integers(0, ctx.prec - 1), unique=True, max_size=ctx.prec))
    terms = {}
    for k in degrees:
        c = draw(series(inner, elems))
        if not c.is_zero():
            terms[(k,)] = c
    return Series(ctx, terms)


def check_packed(a, b):
    """a * b equals the loop, and it ran the packed product exactly when the
    contract packs it, so never with a one-term operand.  With two or more
    terms in each operand, the grouped loop _mul_dict and the packed product,
    when it runs, equal the loop too."""
    want = exact(mul_loop_oracle(a, b))
    prod, packed = traced_product(a, b)
    assert exact(prod) == want
    assert packed == packs(a, b)
    if len(a.terms) > 1 and len(b.terms) > 1:
        assert exact(_mul_dict(a, b)) == want
        got = _mul_packed(a, b)
        assert (got is not None) == packed
        if got is not None:
            assert exact(got) == want


# -- one level ----------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SCALARS))
@SETTINGS
@given(data=st.data(), prec=st.integers(1, 14))
def test_packed_scalars_match_loop(name, data, prec):
    R, elems = SCALARS[name]
    ctx = SeriesCtx(R, ("x",), prec)
    check_packed(data.draw(series(ctx, elems)), data.draw(series(ctx, elems)))


@pytest.mark.parametrize("name", ["Q", "Z/8"])
@SETTINGS
@given(data=st.data(), pa=st.integers(1, 12), pb=st.integers(1, 12))
def test_unequal_precisions_meet_at_the_smaller(name, data, pa, pb):
    R, elems = SCALARS[name]
    a = data.draw(series(SeriesCtx(R, ("x",), pa), elems))
    b = data.draw(series(SeriesCtx(R, ("x",), pb), elems))
    p = min(pa, pb)
    assert exact(a * b) == exact(mul_loop_oracle(a, b))
    assert (a * b).prec == p


@SETTINGS
@given(data=st.data(), prec=st.integers(2, 10))
def test_int_times_fraction_scalars_give_fractions(data, prec):
    ctx = SeriesCtx(QQ, ("x",), prec)
    a = data.draw(series(ctx, SCALARS["Q(int)"][1]))
    b = data.draw(series(ctx, _small_q))
    check_packed(a, b)
    check_packed(b, a)


def test_mixed_int_and_fraction_scalars_take_the_loop():
    ctx = SeriesCtx(QQ, ("x",), 6)
    a = ctx.series({(0,): 3, (1,): Fraction(1, 2), (2,): 5})
    b = ctx.series({(0,): Fraction(2), (1,): 7, (3,): 1})
    assert _mul_packed(a, b) is None
    prod = a * b
    assert exact(prod) == exact(mul_loop_oracle(a, b))
    assert {type(c) for c in prod.terms.values()} == {int, Fraction}


def test_monomial_factor_matches_loop():
    """One term times a series: products that vanish mod m drop out, and
    mixed int and Fraction scalars keep the types the loop gives them."""
    z8 = SeriesCtx(ModularIntegers(8), ("x",), 6)
    q = SeriesCtx(QQ, ("x",), 6)
    cases = [(z8.series({(1,): 4}), z8.series({(0,): 2, (1,): 3, (4,): 6, (5,): 1})),
             (q.series({(2,): Fraction(1, 3)}), q.series({(0,): 3, (1,): Fraction(1, 2), (3,): 5})),
             (q.series({(0,): 7}), q.series({(0,): 3, (2,): Fraction(-5, 4)}))]
    for a, b in cases:
        check_packed(a, b)
        check_packed(b, a)


def test_slot_width_holds_extreme_heights():
    """Every pair at max height and one sign: the widest slot sums there are."""
    big = 2 ** 200 - 1
    for R, c in ((ZZ, -big), (QQ, Fraction(-big, 2 ** 130 + 1)), (ModularIntegers(2 ** 64), 2 ** 64 - 1)):
        ctx = SeriesCtx(R, ("x",), 16)
        a = ctx.series({(k,): c for k in range(16)})
        check_packed(a, a)


def exponents(n, P):
    """Every exponent of n variables and total degree < P."""
    if n == 0:
        return [()] if P > 0 else []
    return [(i,) + rest for i in range(P) for rest in exponents(n - 1, P - i)]


def full(ctx, coeff):
    """coeff(e) at every exponent e of total degree < prec: the densest
    operand there is, so only its carrier can send it to the loop."""
    return ctx.series({e: coeff(e) for e in exponents(len(ctx.vars), ctx.prec)})


def test_other_carriers_take_the_loop():
    """Dense operands, so that the carrier alone decides: PolyRing, a tower
    two SeriesRings deep, and a QuotientExtension with a non-integral
    modulus take the loop."""
    half = QuotientExtension(QQ, (Fraction(1, 2), Fraction(0), Fraction(1)))
    deep = SeriesRing(SeriesRing(ZZ, "c", 3), "b", 3)
    P = PolyRing(ZZ, ("a",))
    cases = [(half, lambda e: (Fraction(sum(e) + 1), Fraction(1, 3))),
             (deep, lambda e: deep.from_int(sum(e) + 2)),
             (P, lambda e: P.gen("a") + P.from_int(sum(e)))]
    for R, coeff in cases:
        for vars in (("x",), ("x", "y")):
            a = full(SeriesCtx(R, vars, 4), coeff)
            assert _mul_packed(a, a) is None
            assert exact(a * a) == exact(mul_loop_oracle(a, a))


# -- two levels: x-series over base[[b]] --------------------------------------

TOWERS = {
    "Z/8[[b]]": (SeriesRing(ModularIntegers(8), "b", 5), SCALARS["Z/8"][1]),
    "Q[[b]]": (SeriesRing(QQ, "b", 6), st.one_of(_small_q, _tall_q)),
    "Z[[b]]<1>": (SeriesRing(ZZ, "b", 1), SCALARS["Z"][1]),
}


@pytest.mark.parametrize("name", sorted(TOWERS))
@SETTINGS
@given(data=st.data(), prec=st.integers(1, 10))
def test_packed_tower_matches_loop(name, data, prec):
    R, elems = TOWERS[name]
    ctx = SeriesCtx(R, ("x",), prec)
    check_packed(data.draw(tower_series(ctx, elems)), data.draw(tower_series(ctx, elems)))


@pytest.mark.parametrize("name", ["Z/8[[b]]", "Q[[b]]"])
@SETTINGS
@given(data=st.data(), prec=st.integers(1, 8))
def test_lower_precision_inner_coefficients_take_the_loop(name, data, prec):
    R, elems = TOWERS[name]
    ctx = SeriesCtx(R, ("x",), prec)
    a = data.draw(tower_series(ctx, elems, inner_prec=R.prec - 1))
    b = data.draw(tower_series(ctx, elems))
    if a.is_zero() or b.is_zero():
        return
    prod, packed = traced_product(a, b)
    assert not packed
    assert exact(prod) == exact(mul_loop_oracle(a, b))


def test_packed_tower_reads_a_partial_last_block():
    """x-series dense in degrees 0..4 at precision 10, with b-coefficients
    that stop at b^1, over Q[[b]]<6> and Z/8[[b]]<5>: they pack, and the
    product's last block, degree 8, spans b-degrees 0 to 2 only, so the
    slots of that block past the packed integer are not read."""
    for R, coeff in ((SeriesRing(QQ, "b", 6), lambda i, j: Fraction(2 * i - 4 * j - 3, 1 + j)),
                     (SeriesRing(ModularIntegers(8), "b", 5), lambda i, j: (2 * i + j + 1) % 8 or 1)):
        ctx = SeriesCtx(R, ("x",), 10)
        a, b = (ctx.series({(i,): R.ctx.series({(j,): coeff(i + k, j) for j in range(2)})
                            for i in range(5)}) for k in (0, 1))
        assert _mul_packed(a, b) is not None
        check_packed(a, b)


# -- operation counts ---------------------------------------------------------

def test_tower_product_makes_no_coefficient_ring_calls(monkeypatch):
    """Two dense x-series over Q[[b]] at (xprec, bprec) = (8, 6) multiply by
    one big-integer product: no SeriesRing.mul and no Rationals.mul."""
    calls = {"SeriesRing.mul": 0, "Rationals.mul": 0}

    def counting(cls, name):
        orig = getattr(cls, name)

        def fn(self, *args):
            calls[f"{cls.__name__}.{name}"] += 1
            return orig(self, *args)
        monkeypatch.setattr(cls, name, fn)

    counting(SeriesRing, "mul")
    counting(Rationals, "mul")
    R = SeriesRing(QQ, "b", 6)
    ctx = SeriesCtx(R, ("x",), 8)

    def dense(seed):
        return ctx.series({(i,): R.ctx.series({(j,): Fraction(seed + 3 * i - j, 1 + i + 2 * j)
                                               for j in range(6)})
                           for i in range(8)})

    a, b = dense(1), dense(-7)
    prod = a * b
    assert calls == {"SeriesRing.mul": 0, "Rationals.mul": 0}
    # the counters count: the loop calls both, at the outer and inner level
    assert exact(prod) == exact(mul_loop_oracle(a, b))
    mul_loop_oracle(a.terms[(1,)], b.terms[(1,)])
    assert calls["SeriesRing.mul"] > 0 and calls["Rationals.mul"] > 0



# -- several variables: x, y (and z) series -----------------------------------

_third = st.builds(lambda n, k: Fraction(n, 3 ** k), st.integers(-10 ** 6, 10 ** 6), st.integers(0, 4))
_omega = omega_ring()
_qb = SeriesRing(QQ, "b", 4)

MULTI = {
    "Z": (ZZ, st.integers(-2 ** 70, 2 ** 70)),
    "Q": SCALARS["Q"],
    "Z_(2)": SCALARS["Z_(2)"],
    "Z/8": SCALARS["Z/8"],
    "F2": (PrimeField(2), st.integers(0, 1)),
    "Z[1/3]": (Z_inverted(3), _third),
    "Z/8[[b]]": (TOWERS["Z/8[[b]]"][0], series(TOWERS["Z/8[[b]]"][0].ctx, SCALARS["Z/8"][1])),
    "Q[[b]]": (_qb, series(_qb.ctx, st.one_of(_small_q, _tall_q))),
    "omega": (_omega, st.tuples(_third, _third)),
    # int coordinates: the loop adds their products into Fraction(0)
    "omega(int)": (_omega, st.tuples(st.integers(-50, 50), st.integers(-50, 50))),
    "GF(4)": (GF(4), st.tuples(st.integers(0, 1), st.integers(0, 1))),
}


@st.composite
def multi_series(draw, ctx, elems):
    """A series in ctx: every exponent half the time, else any support."""
    exps = exponents(len(ctx.vars), ctx.prec)
    if not draw(st.booleans()):
        exps = draw(st.lists(st.sampled_from(exps), unique=True, max_size=len(exps)))
    return ctx.series({e: draw(elems) for e in exps})


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", sorted(MULTI))
@SETTINGS
@given(data=st.data())
def test_multivariate_matches_loop(name, n, data):
    R, elems = MULTI[name]
    prec = data.draw(st.integers(1, 7 if n == 2 else 5))
    ctx = SeriesCtx(R, ("x", "y", "z")[:n], prec)
    check_packed(data.draw(multi_series(ctx, elems)), data.draw(multi_series(ctx, elems)))


@pytest.mark.parametrize("name", ["Z/8", "Q", "omega", "Z/8[[b]]"])
def test_top_exponents_stay_in_their_block(name):
    """Operands with every exponent, so with e_k = P - 1 in each variable:
    digit sums that reach P carry only into blocks of total degree >= P,
    which are dropped."""
    R, _ = MULTI[name]
    for n, P in ((2, 6), (3, 4)):
        ctx = SeriesCtx(R, ("x", "y", "z")[:n], P)
        if name == "omega":
            coeff = lambda e: (Fraction(1 + e[-1], 3), Fraction(sum(e) - 2))
        elif name == "Z/8[[b]]":
            coeff = lambda e: R.ctx.series({(j,): 7 - e[-1] for j in range(R.prec)})
        else:
            coeff = lambda e: R.from_int(3 + e[0] - 2 * e[-1])
        a = full(ctx, coeff)
        b = full(ctx, lambda e: R.one())
        assert any(max(e) == P - 1 for e in a.terms)
        assert _mul_packed(a, b) is not None
        check_packed(a, b)


def test_density_rule_boundary():
    """E_a * E_b >= S packs, and one product fewer takes the loop; E and S
    count only what an operand's order lets the product reach."""
    Z = SeriesCtx(ZZ, ("x",), 10)
    x = Z.gen("x")
    # univariate: S = top + 1 below the cap
    cases = [(1 + x ** 3, 1 + x + x * x, (6, 6), True),
             (1 + x ** 4, 1 + x + x * x, (6, 7), False)]
    # orders 4 and 3: a keeps degrees < 7, b degrees < 6 (x^9 is dropped),
    # and S counts degrees 7..9, so the first packs where the whole
    # operands, E = 6 against S = 10, took the loop
    cases += [(x ** 4 + x ** 5, x ** 3 + x ** 4 + x ** 9, (4, 3), True),
              (x ** 4 + x ** 6, x ** 3 + x ** 9, (2, 3), False)]
    # bivariate over Z at P = 3: index(x) = 3, index(x y) = 7, index(y^2) = 8,
    # and S reaches the cap P^2 = 9; an operand of order 2 keeps only b's
    # constant term and starts at index(x^2) = 6, so S = 3
    Zxy = SeriesCtx(ZZ, ("x", "y"), 3)
    X, Y = Zxy.gen("x"), Zxy.gen("y")
    cases += [(1 + X + X * Y, 1 + Y * Y + X, (9, 9), True),
              (X * X + X * Y + Y * Y, 1 + Y + Y * Y + X, (3, 3), True),
              (Y * Y + X * X, 1 + Y + Y * Y + X, (2, 3), False)]
    # x, y over Z/8[[b]]<2> at P = 3: r = 3, an entry per b-coefficient;
    # S = (index(y) + index(x)) * 3 + 1 + 1 + 1 = 24
    T = SeriesRing(ModularIntegers(8), "b", 2)
    Txy = SeriesCtx(T, ("x", "y"), 3)
    one_b = T.one() + T.gen()
    u, v = Txy.gen("x"), Txy.gen("y")
    cases += [((1 + u + v).scale(one_b), (1 + u).scale(one_b), (24, 24), True),
              (1 + (u + v).scale(one_b), (1 + u).scale(one_b), (20, 24), False)]
    # x, y over GF(4) at P = 3: r = 3, two coordinates per coefficient.  An
    # operand of order 1 starts at block 0, so its product with one of order
    # 0 spans S = 27 - 3 * 3 = 18 slots: (1 + g + h)(g + h), at 24 against
    # S = 27 from block 0, took the loop
    G = SeriesCtx(GF(4), ("x", "y"), 3)
    g, h = G.gen("x"), G.gen("y")
    cases += [(1 + g + h, 1 + g, (24, 24), True),
              (1 + g + h, g + h, (24, 18), True),
              (1 + g, h + g * g, (16, 18), False)]
    for a, b, rule, packed in cases:
        assert density(a, b) == rule
        assert (_mul_packed(a, b) is not None) == packed
        check_packed(a, b)


def test_product_of_order_at_least_prec_is_zero():
    """Orders oa + ob >= P: the packed product is the zero series, with no
    packing, over scalars and a packed QuotientExtension alike."""
    for R, c in ((ZZ, 5), (GF(4), (1, 1))):
        ctx = SeriesCtx(R, ("x", "y"), 3)
        X, Y = ctx.gen("x"), ctx.gen("y")
        a, b = (X * X + Y * Y).scale(c), X + Y
        got = _mul_packed(a, b)
        assert got is not None and got.is_zero() and got.prec == 3
        check_packed(a, b)


# -- operands of high order ---------------------------------------------------

# every packed carrier: the scalars, one level of [[b]] over them, and the
# QuotientExtensions with an integral modulus
HIGH = {**SCALARS,
        **{name: (R, series(R.ctx, elems)) for name, (R, elems) in TOWERS.items()},
        "omega": MULTI["omega"], "omega(int)": MULTI["omega(int)"], "GF(4)": MULTI["GF(4)"]}


@st.composite
def high_order(draw, ctx, elems, order):
    """A series in ctx with terms of total degree >= order only: every such
    exponent half the time, so of order exactly `order`, else any of them."""
    exps = [e for e in exponents(len(ctx.vars), ctx.prec) if sum(e) >= order]
    if not draw(st.booleans()):
        exps = draw(st.lists(st.sampled_from(exps), unique=True, max_size=len(exps)))
    return ctx.series({e: draw(elems) for e in exps})


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(HIGH))
@SETTINGS
@given(data=st.data())
def test_high_order_operands_match_loop(name, n, data):
    """Orders oa, ob < P with oa + ob from 0 up to 2P - 2: the trimmed and
    offset packing gives the loop's values and types, routed by the density
    rule, and the zero series once oa + ob >= P."""
    R, elems = HIGH[name]
    P = data.draw(st.integers(1, (12, 7, 5)[n - 1]))
    ctx = SeriesCtx(R, ("x", "y", "z")[:n], P)
    oa, ob = data.draw(st.integers(0, P - 1)), data.draw(st.integers(0, P - 1))
    a, b = data.draw(high_order(ctx, elems, oa)), data.draw(high_order(ctx, elems, ob))
    check_packed(a, b)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exponents_enumerate_the_blocks_from_the_lowest_degree(n):
    """_exponents(n, P, low, nblocks) against a brute-force listing: each
    exponent of total degree in [low, P), with its index less low*P^(n-1),
    exactly when that shifted index is below nblocks."""
    for P in range(1, 6):
        base = P ** (n - 1)
        every = [(sum(e) * base + sum(e[k] * P ** (n - 1 - k) for k in range(1, n)), e)
                 for e in exponents(n, P)]
        for low in range(P + 1):
            for nblocks in range(P ** n + 2):
                want = sorted((i - low * base, e) for i, e in every
                              if sum(e) >= low and i - low * base < nblocks)
                assert sorted(_exponents(n, P, low, nblocks)) == want


def test_mixed_int_and_fraction_multivariate_take_the_loop():
    ctx = SeriesCtx(QQ, ("x", "y"), 4)
    a = full(ctx, lambda e: Fraction(1, 2) if e[0] else 3)
    b = full(ctx, lambda e: Fraction(e[1] + 1, 5))
    assert _mul_packed(a, b) is None
    assert exact(a * b) == exact(mul_loop_oracle(a, b))


def test_omega_product_makes_no_coefficient_ring_calls(monkeypatch):
    """A dense bivariate product over Z[1/3][w]/(w^2 + w + 1) at precision 8
    is one big-integer product: no QuotientExtension.mul and no
    LocalizedIntegers.mul."""
    calls = {"QuotientExtension.mul": 0, "LocalizedIntegers.mul": 0}

    def counting(cls, name):
        orig = getattr(cls, name)

        def fn(self, *args):
            calls[f"{cls.__name__}.{name}"] += 1
            return orig(self, *args)
        monkeypatch.setattr(cls, name, fn)

    counting(QuotientExtension, "mul")
    counting(LocalizedIntegers, "mul")
    ctx = SeriesCtx(_omega, ("x", "y"), 8)
    a = full(ctx, lambda e: (Fraction(e[0] - 3, 3 ** e[1]), Fraction(1 + e[1], 9)))
    b = full(ctx, lambda e: (Fraction(5 - e[1]), Fraction(e[0], 27)))
    prod = a * b
    assert calls == {"QuotientExtension.mul": 0, "LocalizedIntegers.mul": 0}
    # the counters count: the loop calls QuotientExtension.mul, whose own
    # integer product calls no base-ring mul
    assert exact(prod) == exact(mul_loop_oracle(a, b))
    assert calls["QuotientExtension.mul"] > 0 and calls["LocalizedIntegers.mul"] == 0


# -- products by a unit monomial ----------------------------------------------

# every carrier above, and two whose ring one is Fraction(1) beside int
# coefficients: Fraction(1)*int is a Fraction, so the shift must decline
UNIT = {**HIGH, **MULTI,
        "Z_(2)(int)": (Z_local(2), st.integers(-10 ** 12, 10 ** 12)),
        "Q[[b]](int)": (TOWERS["Q[[b]]"][0], series(TOWERS["Q[[b]]"][0].ctx,
                                                    st.integers(-10 ** 6, 10 ** 6)))}
# the carriers whose one is the int 1: Z, Z/m, F_p and one level of [[b]] over them
SHIFTS = {"Z", "F2", "F3", "Z/8", "Z/2^64", "Z/8[[b]]", "Z[[b]]<1>"}


def shifted(prod, e, s, ones):
    """Whether each term of s that prod keeps is, moved by e, the object of s
    itself or one of the objects in ones: a shift, not a product."""
    top = prod.ctx.prec - sum(e)
    return [any(prod.terms[tuple(x + y for x, y in zip(e, f))] is w for w in (v, *ones))
            for f, v in s.terms.items() if sum(f) < top]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(UNIT))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_unit_monomial_products_match_loop(name, n, data):
    """x^e times a series, on either side: the loop's values and Python
    types, and an exponent shift, which returns the other factor's own
    coefficients, exactly on the carriers whose one is the int 1."""
    R, elems = UNIT[name]
    P = data.draw(st.integers(1, (12, 7, 5)[n - 1]))
    ctx = SeriesCtx(R, ("x", "y", "z")[:n], P)
    e = data.draw(st.sampled_from(exponents(n, P)))
    mono = ctx.series({e: R.one()})
    s = data.draw(multi_series(ctx, elems))
    want = exact(mul_loop_oracle(mono, s))
    for a, b in ((mono, s), (s, mono)):
        prod = a * b
        assert exact(prod) == want
        # when s is a one-term one too, either factor may be the one shifted
        same = shifted(prod, e, s, mono.terms.values())
        assert all(same) if name in SHIFTS else not any(same)


@pytest.mark.parametrize("name", ["Z/8[[b]]", "Z[[b]]<1>"])
@SETTINGS
@given(data=st.data(), prec=st.integers(1, 8))
def test_unit_monomial_declines_coefficients_at_another_context(name, data, prec):
    """Over R[[b]] a shift keeps each coefficient as it is, so there is none
    when a coefficient, of either factor, is not at the ring's own context:
    the loop truncates it to the lower b-precision, and refuses a
    coefficient in another variable."""
    R, elems = TOWERS[name]
    ctx = SeriesCtx(R, ("x",), prec)
    e = data.draw(st.integers(0, prec - 1))
    mono = ctx.series({(e,): R.one()})
    if R.prec > 1:
        s = data.draw(tower_series(ctx, elems, inner_prec=R.prec - 1))
        other_one = Series(ctx, {(e,): R.ctx.at_prec(R.prec - 1).one()})
        for a, b in ((mono, s), (s, mono), (other_one, ctx.one()), (ctx.one(), other_one)):
            prod = a * b
            assert exact(prod) == exact(mul_loop_oracle(a, b))
            assert not any(c is v for c in prod.terms.values()
                           for v in (*a.terms.values(), *b.terms.values()))
    else:
        # at b-precision 1, a one in another variable
        other_one = Series(ctx, {(e,): SeriesCtx(R.base, ("c",), 1).one()})
        for a, b in ((other_one, ctx.one()), (ctx.one(), other_one)):
            with pytest.raises(MixedVariablesError):
                a * b


# every carrier of this file: those above, coefficients at another
# b-precision beside the ring's own, and the carriers that take the loop
_Z8B, _QB = TOWERS["Z/8[[b]]"][0], TOWERS["Q[[b]]"][0]
_half = QuotientExtension(QQ, (Fraction(1, 2), Fraction(0), Fraction(1)))
_deep = SeriesRing(SeriesRing(ZZ, "c", 3), "b", 3)
_poly = PolyRing(ZZ, ("a",))
ANY = {**UNIT,
       "Z/8[[b]](mixed)": (_Z8B, st.one_of(*(series(_Z8B.ctx.at_prec(p), SCALARS["Z/8"][1])
                                             for p in (_Z8B.prec, _Z8B.prec - 1)))),
       "Q[[b]](mixed)": (_QB, st.one_of(*(series(_QB.ctx.at_prec(p), _small_q)
                                          for p in (_QB.prec, 2)))),
       "half": (_half, st.tuples(_small_q, _small_q)),
       "deep": (_deep, series(_deep.ctx, series(_deep.base.ctx, st.integers(-9, 9)))),
       "PolyRing": (_poly, st.dictionaries(st.integers(0, 2), st.integers(-5, 5), max_size=3)
                    .map(lambda d: _poly.poly({(k,): c for k, c in d.items()})))}


@st.composite
def one_term(draw, ctx, elems):
    """c*x^e for any e below ctx.prec and any c: the zero series when c is 0."""
    e = draw(st.sampled_from(exponents(len(ctx.vars), ctx.prec)))
    return ctx.series({e: draw(elems)})


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(ANY))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_one_term_products_match_loop(name, n, data):
    """A one-term factor with any coefficient (or the zero series) times a
    series or another one-term factor, on either side, and Series.scale by
    any scalar: the loop's values and Python types, with products that
    vanish, as over Z/8, dropped."""
    R, elems = ANY[name]
    P = data.draw(st.integers(1, (12, 7, 5)[n - 1]))
    ctx = SeriesCtx(R, ("x", "y", "z")[:n], P)
    t = data.draw(one_term(ctx, elems))
    s = data.draw(st.one_of(multi_series(ctx, elems), one_term(ctx, elems)))
    for a, b in ((t, s), (s, t)):
        assert exact(a * b) == exact(mul_loop_oracle(a, b))
    c = data.draw(elems)
    want = exact(mul_loop_oracle(Series(ctx, {(0,) * n: c}), s))
    assert exact(s.scale(c)) == want


def test_one_term_zero_divisors_are_dropped():
    """Over Z/8 and Z/8[[b]], 4 and 4 + 4b times a series whose even
    coefficients make products that vanish: those terms are dropped, by
    __mul__ on either side and by scale, as the loop drops them."""
    z8 = SeriesCtx(ModularIntegers(8), ("x", "y"), 5)
    zb = SeriesCtx(_Z8B, ("x",), 5)
    four_b = _Z8B.ctx.series({(0,): 4, (1,): 4})
    cases = [(z8, 4, z8.series({(0, 0): 2, (1, 0): 3, (0, 2): 6, (3, 1): 4})),
             (zb, four_b, zb.series({(0,): _Z8B.from_int(2), (1,): _Z8B.gen() + 1,
                                     (3,): _Z8B.ctx.series({(0,): 6, (2,): 1})}))]
    for ctx, c, s in cases:
        for e in ((0,) * len(ctx.vars), (1,) + (0,) * (len(ctx.vars) - 1)):
            t = ctx.series({e: c})
            for a, b in ((t, s), (s, t)):
                prod = a * b
                assert exact(prod) == exact(mul_loop_oracle(a, b))
                assert len(prod.terms) < len(s.terms)
        scaled = s.scale(c)
        assert exact(scaled) == exact(mul_loop_oracle(ctx.const(c), s))
        assert len(scaled.terms) < len(s.terms)


def test_unit_monomial_product_makes_no_coefficient_products(monkeypatch):
    """x^3 and the series 1 times a dense x-series over Z/8[[b]]: no
    SeriesRing.mul or dot, and the other factor's coefficients come back
    as they are; the ring's one at another b-precision takes the loop."""
    calls = []
    for name in ("mul", "dot"):
        orig = getattr(SeriesRing, name)

        def fn(self, *args, orig=orig, name=name):
            calls.append(name)
            return orig(self, *args)
        monkeypatch.setattr(SeriesRing, name, fn)
    R = SeriesRing(ModularIntegers(8), "b", 5)
    ctx = SeriesCtx(R, ("x",), 9)
    s = ctx.series({(i,): R.ctx.series({(j,): (i + 3 * j) % 8 for j in range(5)})
                    for i in range(9)})
    for mono in (ctx.series({(3,): R.one()}), ctx.one()):
        calls.clear()
        prod = mono * s
        assert calls == []
        assert exact(prod) == exact(mul_loop_oracle(mono, s))
        top = ctx.prec - mono.order()
        assert all(prod.terms[(i + mono.order(),)] is s.terms[(i,)] for i in range(top))
    # the counters count: a one below the ring's b-precision multiplies
    low_one = Series(ctx, {(3,): R.ctx.at_prec(4).one()})
    calls.clear()
    prod = low_one * s
    assert calls
    assert exact(prod) == exact(mul_loop_oracle(low_one, s))
