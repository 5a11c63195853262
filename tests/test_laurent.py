"""Differential tests of `series.Laurent` against the dict q-series oracle over
Z, and tests of its precision contract.

The oracle claims a product, power and f(q^2) at the precision of its
operands, which is honest only when each operand starts at q^0 (and, for
f(q^2), when that precision is not negative).  Products and powers are
therefore drawn at valuation 0 and then shifted, so both sides state the
precision that is really known, and the comparison is exact: the same
precision and the same coefficients, not `==`."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chromalg import moduli
from chromalg.errors import AlgebraError, NotInvertible, TruncationError
from chromalg.rings import ModularIntegers, ZZ
from chromalg.series import Laurent, SeriesCtx

from oracles import QSeries as Oracle
from oracles import psi_defect_oracle

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def same(lau, ora):
    return lau.prec == ora.prec and lau.coeffs == ora.coeffs


@st.composite
def pairs(draw, lead=st.integers(-30, 30), shift=st.integers(-4, 4)):
    """(oracle, Laurent) for one integer q-series: coefficients of q^m .. q^(m+n-1),
    known below q^(m+n), with its q^m coefficient drawn from `lead`."""
    n = draw(st.integers(1, 10))
    m = draw(shift)
    cs = [draw(lead)] + draw(st.lists(st.integers(-30, 30), min_size=n - 1, max_size=n - 1))
    coeffs = {m + k: c for k, c in enumerate(cs)}
    return Oracle(coeffs, m + n), moduli.QSeries(coeffs, m + n)


NONZERO = st.integers(-30, 30).filter(bool)
UNIT = st.sampled_from([1, -1])


@SETTINGS
@given(pairs(), pairs(), st.integers(-3, 3))
def test_add_sub_scale_eq_match_oracle(a, b, k):
    (oa, la), (ob, lb) = a, b
    assert same(la, oa)
    assert same(la + lb, oa + ob)
    assert same(la - lb, oa - ob)
    assert same(la.scale(k), oa.scale(k))
    assert (la == lb) == (oa == ob)
    assert la == la.scale(1) and la - la == la.scale(0)


@SETTINGS
@given(pairs(lead=NONZERO, shift=st.just(0)), pairs(lead=NONZERO, shift=st.just(0)),
       st.integers(-4, 4), st.integers(-4, 4))
def test_mul_matches_oracle(a, b, m1, m2):
    (oa, la), (ob, lb) = a, b
    assert same(la * lb, oa * ob)
    assert same(la.shift(m1) * lb.shift(m2), (oa * ob).shift(m1 + m2))


@SETTINGS
@given(pairs(lead=NONZERO, shift=st.just(0)), st.integers(0, 4), st.integers(-3, 3))
def test_pow_matches_oracle(a, k, m):
    oa, la = a
    assert same(la ** k, oa ** k)
    assert same(la.shift(m) ** k, (oa ** k).shift(k * m))


@SETTINGS
@given(pairs(lead=UNIT), st.integers(1, 3))
def test_inverse_and_negative_powers_match_oracle(a, k):
    oa, la = a
    inv = oa.inverse_unit()
    assert same(la.inverse(), inv)
    assert same(la ** -k, (inv.shift(oa.n0) ** k).shift(-k * oa.n0))


@SETTINGS
@given(pairs(lead=st.integers(2, 30)))
def test_inverse_refuses_a_non_unit_leading_coefficient(a):
    _, la = a
    with pytest.raises(NotInvertible):
        la.inverse()


@SETTINGS
@given(pairs(), st.integers(-6, 6))
def test_shift_matches_oracle(a, m):
    oa, la = a
    assert same(la.shift(m), oa.shift(m))


@SETTINGS
@given(pairs(), st.integers(1, 6))
def test_divide_exact_matches_oracle(a, k):
    oa, la = a
    assert same(la.scale(k).divide_exact(k), oa.scale(k).divide_exact(k))
    try:
        want = oa.divide_exact(k)
    except AlgebraError:
        with pytest.raises(AlgebraError):
            la.divide_exact(k)
        return
    assert same(la.divide_exact(k), want)


@SETTINGS
@given(pairs(shift=st.integers(-4, 4)))
def test_psi_defect_matches_oracle(a):
    oa, la = a
    if oa.prec < 0:
        # f(q^2) of a series known below q^P is known below q^(2P) < q^P
        assert moduli.psi_operator(la).prec == 2 * la.prec
        return
    assert same(moduli.psi_defect(la), psi_defect_oracle(oa))
    if la.prec > 0:
        assert moduli.psi_defect(la)[0] == 0


@SETTINGS
@given(pairs())
def test_getitem_matches_oracle_and_stops_at_prec(a):
    oa, la = a
    for n in range(oa.prec - 12, oa.prec):
        assert la[n] == oa[n]
    with pytest.raises(TruncationError):
        la[oa.prec]


# -- precision ------------------------------------------------------------------

@pytest.mark.parametrize("P", [1, 3, 8])
def test_cancellation_keeps_absolute_precision(P):
    pole = moduli.QSeries({-2: 1}, P)
    f = moduli.QSeries({-2: 1, 0: 1}, P)
    assert f.S.prec == P + 2
    d = f - pole
    # the difference is 1 + O(q^P): S lost the 2 degrees the pole cancelled
    assert (d.val, d.prec, d.S.prec) == (0, P, P)
    assert d.coeffs == {0: 1}
    with pytest.raises(TruncationError):
        d.to_series(P + 1)


def test_total_cancellation_is_zero_at_the_known_precision():
    f = moduli.QSeries({-1: 3, 0: 5, 2: 7}, 4)
    d = f - f
    assert d.S.is_zero() and d.prec == 4 and d.coeffs == {}


def test_to_series_precision_and_poles():
    ctx = SeriesCtx(ZZ, ("x",), 6)
    f = Laurent(ctx.series({(2,): 1, (3,): 4}))
    assert (f.val, f.S.prec, f.prec) == (2, 4, 6)
    s = f.to_series(6)
    assert s.ctx.vars == ("x",) and s.prec == 6 and s.terms == {(2,): 1, (3,): 4}
    assert f.to_series(3).terms == {(2,): 1}
    with pytest.raises(TruncationError):
        f.to_series(7)
    with pytest.raises(AlgebraError):
        f.shift(-3).to_series(2)
    assert f.shift(-2).to_series(4).terms == {(0,): 1, (1,): 4}


def test_products_over_zero_divisors_keep_honest_precision():
    # over Z/4, (2 + x) * (2 + x) = 4x + x^2 = x^2 mod 4: the product starts at
    # x^2, known below the same absolute degree as the factors
    ctx = SeriesCtx(ModularIntegers(4), ("x",), 5)
    f = Laurent(ctx.series({(0,): 2, (1,): 1}))
    g = f * f
    assert (g.val, g.prec, g.coeffs) == (2, 5, {2: 1})


def test_psi_operator_doubles_the_known_precision():
    f = moduli.QSeries({1: 1, 2: -3}, 5)
    g = moduli.psi_operator(f)
    assert g.prec == 10 and g.coeffs == {2: 1, 4: -3}
