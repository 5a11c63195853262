import itertools
import random
from fractions import Fraction

import pytest

from chromalg.errors import (CompositionError, MixedVariablesError,
                             NotInvertible, PreparationFailed, TruncationError)
from chromalg.rings import ModularIntegers, QQ, QuotientExtension, Z_inverted, Z_local, ZZ
from chromalg.series import SeriesCtx, SeriesRing, weierstrass_prepare

from oracles import series_div_oracle, weierstrass_prepare_oracle


def uni(ring, prec):
    return SeriesCtx(ring, ("x",), prec)


def test_compose_identity():
    ctx = uni(ZZ, 6)
    x = ctx.gen("x")
    f = x
    g = x + x * x
    assert f.compose({"x": g}) == g


def test_compose_square():
    ctx = uni(ZZ, 5)
    x = ctx.gen("x")
    f = x * x
    arg = x + x ** 3
    out = f.compose({"x": arg})
    assert [out.ucoeff(i) for i in range(5)] == [0, 0, 1, 0, 2]


def test_compose_rejects_constant_term():
    ctx = uni(ZZ, 5)
    x = ctx.gen("x")
    with pytest.raises(CompositionError):
        x.compose({"x": x + ctx.one()})


def test_geometric_inverse_and_oracle():
    ctx = SeriesCtx(ZZ, ("b",), 4)
    f = ctx.one() - ctx.gen("b").scale(24)
    inv = f.inverse()
    assert [inv.ucoeff(i) for i in range(4)] == [1, 24, 576, 13824]
    assert series_div_oracle([1], [1, -24], ZZ, 4) == [1, 24, 576, 13824]
    assert f * inv == ctx.one()


def test_reverse_identity_and_quadratic():
    ctx = uni(ZZ, 5)
    x = ctx.gen("x")
    assert x.reverse() == x
    g = (x + x * x).reverse()
    assert [g.ucoeff(i) for i in range(5)] == [0, 1, -1, 2, -5]
    assert (x + x * x).compose({"x": g}) == x
    assert g.compose({"x": x + x * x}) == x


def test_reverse_exp_log():
    ctx = uni(QQ, 4)
    x = ctx.gen("x")
    log1p = x - (x * x).scale(Fraction(1, 2)) + (x ** 3).scale(Fraction(1, 3))
    e = log1p.reverse()
    assert [e.ucoeff(i) for i in range(4)] == [0, 1, Fraction(1, 2), Fraction(1, 6)]


def test_reverse_roundtrip_property():
    import random
    rng = random.Random(0)
    ctx = uni(QQ, 7)
    x = ctx.gen("x")
    for _ in range(25):
        terms = {(1,): Fraction(rng.choice([1, -1, 2, 3]))}
        for d in range(2, 7):
            c = rng.randint(-3, 3)
            if c:
                terms[(d,)] = Fraction(c)
        f = ctx.series(terms)
        g = f.reverse()
        assert f.compose({"x": g}) == x
        assert g.compose({"x": f}) == x


def test_reverse_needs_unit_linear_term():
    ctx = uni(ZZ, 5)
    x = ctx.gen("x")
    with pytest.raises(NotInvertible):
        (x.scale(2)).reverse()


def test_mixing_variable_sets_is_an_error():
    a = SeriesCtx(ZZ, ("x",), 5).gen("x")
    b = SeriesCtx(ZZ, ("y",), 5).gen("y")
    with pytest.raises(MixedVariablesError):
        a + b


def test_series_over_different_quotient_rings_do_not_mix():
    # Q[w]/(w^2+w+1) and Q[w]/(w^2+3) print alike; their structure differs
    R1 = QuotientExtension(QQ, (1, 1, 1))
    R2 = QuotientExtension(QQ, (3, 0, 1))
    assert repr(R1) == repr(R2)
    a = SeriesCtx(R1, ("x",), 4).gen("x")
    b = SeriesCtx(R2, ("x",), 4).gen("x")
    with pytest.raises(MixedVariablesError):
        a * b
    same = SeriesCtx(QuotientExtension(QQ, (1, 1, 1)), ("x",), 4).gen("x")
    assert (a * same).ucoeff(2) == R1.one()
    # towers compare their base, variable and precision the same way
    b3, b4 = SeriesRing(ModularIntegers(4), "b", 3), SeriesRing(ModularIntegers(4), "b", 4)
    with pytest.raises(MixedVariablesError):
        SeriesCtx(b3, ("x",), 4).gen("x") * SeriesCtx(b4, ("x",), 4).gen("x")
    twin = SeriesRing(ModularIntegers(4), "b", 3)
    assert (SeriesCtx(b3, ("x",), 4).gen("x") * SeriesCtx(twin, ("x",), 4).gen("x")).ucoeff(2) == b3.one()


def test_truncation_min_rule():
    c1 = uni(ZZ, 7)
    c2 = uni(ZZ, 4)
    out = c1.gen("x") * c2.gen("x")
    assert out.prec == 4


def test_weierstrass_prepare_already_monic():
    Z8 = ModularIntegers(8)
    ctx = uni(Z8, 6)
    x = ctx.gen("x")
    f = x.scale(2) + x * x
    unit, dist, d = weierstrass_prepare_oracle(f)
    assert d == 2 and dist == [0, 2, 1]
    assert unit == ctx.one()
    assert weierstrass_prepare(f) == (dist, d)


def test_weierstrass_prepare_unit_five():
    Z8 = ModularIntegers(8)
    ctx = uni(Z8, 6)
    x = ctx.gen("x")
    f = x.scale(2) + (x * x).scale(5)
    unit, dist, d = weierstrass_prepare_oracle(f)
    # distinguished = x^2 + 2 * 5^(-1) x = x^2 + 2x mod 8
    assert d == 2 and dist == [0, 2, 1]
    recomposed = unit * ctx.series({(1,): dist[1], (2,): dist[2]})
    assert recomposed == f
    assert unit.constant_term() == 5
    assert weierstrass_prepare(f) == (dist, d)


def test_weierstrass_prepare_no_unit():
    Z8 = ModularIntegers(8)
    ctx = uni(Z8, 6)
    x = ctx.gen("x")
    with pytest.raises(PreparationFailed):
        weierstrass_prepare(ctx.from_int(2) + x.scale(4))
    with pytest.raises(PreparationFailed):
        weierstrass_prepare_oracle(ctx.from_int(2) + x.scale(4))


def test_weierstrass_prepare_distinguished_factor_is_stable_in_precision():
    """Over Z/8, f = 2 + 4x + x^2 + 3x^3 + 5x^4 + x^5 + x^6 + x^7 + ...
    has the distinguished factor x^2 + 6x + 2 at precisions 6 and 12, while
    the unit of f = unit * distinguished reads 1 + 7x + ... at precision 6
    and 5 + 3x + ... at 12: only the factor is returned."""
    Z8 = ModularIntegers(8)
    found = {}
    for prec in (6, 12):
        ctx = uni(Z8, prec)
        f = ctx.series({(k,): c for k, c in enumerate([2, 4, 1, 3, 5] + [1] * (prec - 5))})
        unit, dist, d = weierstrass_prepare_oracle(f)
        assert unit * ctx.series({(k,): c for k, c in enumerate(dist)}) == f
        assert weierstrass_prepare(f) == (dist, d)
        found[prec] = (dist, d, [unit.ucoeff(k) for k in range(2)])
    assert found[6] == ([2, 6, 1], 2, [1, 7])
    assert found[12] == ([2, 6, 1], 2, [5, 3])


def test_prepare_over_series_ring():
    SR = SeriesRing(ModularIntegers(4), "b", 5)
    ctx = SeriesCtx(SR, ("x",), 6)
    x = ctx.gen("x")
    b = SR.gen()
    f = x.scale(SR.from_int(2)) + (x * x).scale(SR.add(SR.one(), b))
    unit, dist, d = weierstrass_prepare_oracle(f)
    assert d == 2
    recomposed = unit * ctx.series({(1,): dist[1], (2,): dist[2]})
    assert recomposed == f
    assert weierstrass_prepare(f) == (dist, d)


def test_series_ring_divide_by_positive_order_raises():
    """(b^2 + b^4) / b = b + b^3, but at prec 4 only b + O(b^3) is known:
    the quotient is not claimed to prec 4.  A dividend of lower order than
    the divisor still has no quotient."""
    SR = SeriesRing(ModularIntegers(4), "b", 4)
    b = SR.gen()
    with pytest.raises(TruncationError):
        SR.divide(SR.ctx.series({(2,): 1, (4,): 1}), b)
    assert SR.divide(b, b * b) is None
    assert SR.divide(b, SR.add(SR.one(), b)) == SR.ctx.series({(1,): 1, (2,): 3, (3,): 1})


def test_series_ring_divide_by_a_non_unit_of_order_zero():
    """Over Z/4 a divisor 2 + 2b has quotients: q = 1 for itself, and one for
    2 + 2b + 2b^2, though its constant term is no unit; 1 has none."""
    SR = SeriesRing(ModularIntegers(4), "b", 4)
    d = SR.ctx.series({(0,): 2, (1,): 2})
    for a in (d, SR.ctx.series({(0,): 2, (1,): 2, (2,): 2})):
        q = SR.divide(a, d)
        assert q is not None and q * d == a
    assert SR.divide(SR.one(), d) is None


@pytest.mark.parametrize("prec", [1, 2, 3])
def test_series_ring_divide_over_z4_matches_brute_force(prec):
    """Every dividend a and every divisor b of order 0 over Z/4[[b]]: a
    quotient comes back exactly when some q has q*b = a, and it is one."""
    SR = SeriesRing(ModularIntegers(4), "b", prec)
    elements = [SR.ctx.series({(k,): c for k, c in enumerate(cs)})
                for cs in itertools.product(range(4), repeat=prec)]
    for b in elements:
        if b.constant_term() == 0:
            continue
        products = [q * b for q in elements]
        for a in elements:
            q = SR.divide(a, b)
            if q is None:
                assert not any(p == a for p in products)
            else:
                assert q * b == a


def test_series_ring_divide_over_z_matches_long_division():
    """Over Z the quotient by b with b(0) = 2 is unique when it exists: long
    division over Q decides it."""
    rng = random.Random(0)
    SR = SeriesRing(ZZ, "b", 6)
    for _ in range(40):
        b = [2] + [rng.randint(-3, 3) for _ in range(5)]
        a = [rng.randint(-6, 6) for _ in range(6)]
        if rng.random() < 0.5:
            q = [rng.randint(-3, 3) for _ in range(6)]
            a = [sum(q[i] * b[k - i] for i in range(k + 1)) for k in range(6)]
        want = series_div_oracle(a, b, QQ, 6)
        got = SR.divide(SR.ctx.series({(k,): c for k, c in enumerate(a)}),
                        SR.ctx.series({(k,): c for k, c in enumerate(b)}))
        if any(v.denominator != 1 for v in want):
            assert got is None
        else:
            assert got is not None and [got.ucoeff(k) for k in range(6)] == want


def test_series_ring_divide_over_localized_integers_by_a_non_unit():
    """Over Z_(2) and Z[1/3] a divisor 2 + 2b of order 0 is no unit, yet it
    divides itself and 2 + 2b + 2b^2 (quotient 1 + b^2/(1 + b)); 1 it does
    not divide."""
    for base in (Z_local(2), Z_inverted(3)):
        SR = SeriesRing(base, "b", 4)
        d = SR.ctx.series({(0,): Fraction(2), (1,): Fraction(2)})
        assert not SR.is_unit(d)
        assert SR.divide(d, d) == SR.one()
        a = SR.ctx.series({(0,): Fraction(2), (1,): Fraction(2), (2,): Fraction(2)})
        q = SR.divide(a, d)
        assert q == SR.ctx.series({(0,): Fraction(1), (2,): Fraction(1), (3,): Fraction(-1)})
        assert all(type(v) is Fraction for v in q.terms.values())
        assert SR.divide(SR.one(), d) is None


@pytest.mark.parametrize("base", [Z_local(2), Z_inverted(3)], ids=["Z_(2)", "Z[1/3]"])
def test_series_ring_divide_over_localized_integers_matches_q(base):
    """Over Z_(2)[[b]] and Z[1/3][[b]], by 2 + 2b and by random divisors whose
    constant term 2 is no unit: a quotient comes back exactly when the one
    over Q has every coefficient in the base, and then it is that one."""
    rng = random.Random(5)
    P = 6

    def in_base(v):
        try:
            base.check(v)
        except ValueError:
            return False
        return True

    def scalar():
        return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 3, 5, 9]))

    SR = SeriesRing(base, "b", P)
    divisors = [[Fraction(2), Fraction(2)] + [Fraction(0)] * (P - 2)]
    divisors += [[Fraction(2)] + [scalar() for _ in range(P - 1)] for _ in range(20)]
    divisors = [[v if in_base(v) else Fraction(v.numerator) for v in b] for b in divisors]
    for b in divisors:
        for _ in range(4):
            a = [scalar() for _ in range(P)]
            if rng.random() < 0.5:
                q = [scalar() for _ in range(P)]
                a = [sum((q[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(P)]
            a = [v if in_base(v) else Fraction(v.numerator) for v in a]
            want = series_div_oracle(a, b, QQ, P)
            got = SR.divide(SR.ctx.series({(k,): c for k, c in enumerate(a)}),
                            SR.ctx.series({(k,): c for k, c in enumerate(b)}))
            if all(in_base(v) for v in want):
                assert got is not None
                assert [got.ucoeff(k) for k in range(P)] == want
            else:
                assert got is None


def test_integrate_needs_divisibility():
    ctx = uni(ZZ, 4)
    x = ctx.gen("x")
    with pytest.raises(NotInvertible):
        (x.scale(1)).integrate()   # x^2/2 not integral over Z
    ctxq = uni(QQ, 4)
    out = ctxq.gen("x").integrate()
    assert out.ucoeff(2) == Fraction(1, 2)


def test_scale_by_zero_makes_no_ring_product(monkeypatch):
    """A zero scalar gives the zero series at the same precision, without a
    product of the base ring (here each would be a b-series product)."""
    S = SeriesRing(QQ, "b", 4)
    b = S.gen()
    ctx = SeriesCtx(S, ("z",), 5)
    z = ctx.gen("z")
    f = z.scale(b) + (z * z * z).scale(S.one() + b)

    def no_product(x, y):
        raise AssertionError("a ring product for a zero scalar")

    monkeypatch.setattr(S, "mul", no_product)
    zero = f.scale(S.zero())
    assert zero.terms == {} and zero.prec == f.prec
