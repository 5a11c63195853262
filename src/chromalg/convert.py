"""Scalar transport between coefficient rings (rational lifts, 2-adic
reductions, integrality checks).  Values are handled structurally: Fractions,
ints, quotient-extension tuples, Poly and Series recurse."""

from __future__ import annotations

from fractions import Fraction

from .errors import IntegralityFailure
from .poly import Poly, PolyRing
from .rings import ModularIntegers, Rationals, Ring
from .series import Series, SeriesCtx, SeriesRing


def fraction_mod(q: Fraction, m: int) -> int:
    """Image of a rational with denominator prime to m in Z/m."""
    q = Fraction(q)
    try:
        dinv = pow(q.denominator, -1, m)
    except ValueError:
        raise IntegralityFailure(f"{q} is not integral mod {m}") from None
    return (q.numerator * dinv) % m


def descend_scalar(value, target: Ring):
    """Inverse of rationalize on elements that happen to be integral: each
    Fraction, coordinate and coefficient descends on its own."""
    if isinstance(value, Fraction):
        if isinstance(target, Rationals):
            return value
        q = target.divide(target.from_int(value.numerator),
                          target.from_int(value.denominator))
        if q is None:
            raise IntegralityFailure(f"{value} not integral for {target!r}")
        return q
    if isinstance(value, Poly):
        out = {}
        for e, c in value.terms.items():
            out[e] = descend_scalar(c, target.base)
        return Poly(target, out)
    if isinstance(value, Series):
        return value.map_coefficients(lambda c: descend_scalar(c, target.base), target.base)
    if isinstance(value, tuple):
        return tuple(descend_scalar(c, target.base) for c in value)
    raise IntegralityFailure(f"cannot descend {type(value)}")


def is_local_integral(value, p: int = 2) -> bool:
    """True when every rational inside has denominator prime to p."""
    if isinstance(value, Fraction):
        return value.denominator % p != 0
    if isinstance(value, int):
        return True
    if isinstance(value, tuple):
        return all(is_local_integral(v, p) for v in value)
    if isinstance(value, Poly):
        return all(is_local_integral(c, p) for c in value.terms.values())
    if isinstance(value, Series):
        return all(is_local_integral(c, p) for c in value.terms.values())
    raise TypeError(f"unsupported scalar {type(value)}")


def reduce_scalar(value, target: Ring):
    """Reduce a rational-flavored scalar into target (Z/m, Z/m[[b]], etc.)."""
    if isinstance(target, ModularIntegers):
        if isinstance(value, (int, Fraction)):
            return fraction_mod(Fraction(value), target.m)
        raise TypeError(f"cannot reduce {type(value)} into {target!r}")
    if isinstance(target, SeriesRing):
        if isinstance(value, Series):
            return value.truncate(target.prec).map_coefficients(
                lambda c: reduce_scalar(c, target.base), target.base)
        if isinstance(value, (int, Fraction)):
            return target.const(reduce_scalar(value, target.base))
        raise TypeError(f"cannot reduce {type(value)} into {target!r}")
    if isinstance(target, PolyRing):
        if isinstance(value, Poly):
            out = {}
            for e, c in value.terms.items():
                v = reduce_scalar(c, target.base)
                if not target.base.is_zero(v):
                    out[e] = v
            return Poly(target, out)
        return target.const(reduce_scalar(value, target.base))
    raise TypeError(f"no reduction into {target!r}")


def series_reduce(s: Series, target_ring: Ring) -> Series:
    """Coefficientwise reduce_scalar over a whole (possibly multivariate) series."""
    out = {}
    for e, c in s.terms.items():
        v = reduce_scalar(c, target_ring)
        if not target_ring.is_zero(v):
            out[e] = v
    return Series(SeriesCtx(target_ring, s.ctx.vars, s.ctx.prec), out)


def assert_two_integral(s: Series, what: str):
    from .errors import QuotientPrecisionError
    for e, c in s.terms.items():
        if not is_local_integral(c, 2):
            raise QuotientPrecisionError(f"{what}: coefficient at {e} is not 2-integral: {c}")
