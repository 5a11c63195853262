"""Differential and operation-count tests for the packed series product: the
Kronecker-packed multiplication of series.py against the term-by-term loop
it replaces for univariate series over Z, Q, Z_(p), Z/m, F_p and one level of
SeriesRing over those."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chromalg.rings import (QQ, ZZ, ModularIntegers, PrimeField, Rationals,
                            Z_local, omega_ring)
from chromalg.series import (Series, SeriesCtx, SeriesRing, _mul_dict,
                             _mul_packed)

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def exact(v):
    """Variables, precision, terms and scalar types, recursively: the packed
    product must give the loop's int or Fraction, not an equal value."""
    if isinstance(v, Series):
        return (v.ctx.vars, v.ctx.prec, {e: exact(c) for e, c in v.terms.items()})
    return (type(v), v)


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
    """The packed product ran and equals the loop, as does a * b."""
    want = exact(_mul_dict(a, b))
    got = _mul_packed(a, b)
    assert got is not None
    assert exact(got) == want
    assert exact(a * b) == want


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
    assert exact(a * b) == exact(_mul_dict(a.truncate(p), b.truncate(p)))
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
    assert exact(prod) == exact(_mul_dict(a, b))
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


def test_other_carriers_take_the_loop():
    W = omega_ring()
    w = SeriesCtx(W, ("t",), 5).gen("t")
    assert _mul_packed(w + w * w, w) is None
    xy = SeriesCtx(ZZ, ("x", "y"), 5)
    assert _mul_packed(xy.gen("x") + xy.gen("y"), xy.gen("x")) is None
    deep = SeriesRing(SeriesRing(ZZ, "c", 3), "b", 3)
    x = SeriesCtx(deep, ("x",), 4).gen("x")
    assert _mul_packed(x + x * x, x + x * x) is None


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
    assert _mul_packed(a, b) is None
    assert exact(a * b) == exact(_mul_dict(a, b))


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
    assert exact(prod) == exact(_mul_dict(a, b))
    _mul_dict(a.terms[(1,)], b.terms[(1,)])
    assert calls["SeriesRing.mul"] > 0 and calls["Rationals.mul"] > 0
