"""Scalar transport between coefficient rings: reduce_scalar is the one map
from rational values (ints and Fractions, and the QuotientExtension tuples,
Poly and Series built on them) down into any ring, the inverse of
Ring.rationalize on the values that are integral there and IntegralityFailure
on the others, so reducing into Z/2^k is itself the 2-integrality refusal."""

from __future__ import annotations

from fractions import Fraction

from .errors import IntegralityFailure
from .poly import Poly, PolyRing
from .rings import ModularIntegers, QuotientExtension, Ring
from .series import Series, SeriesRing


def fraction_mod(q: Fraction, m: int) -> int:
    """Image of a rational with denominator prime to m in Z/m."""
    q = Fraction(q)
    try:
        dinv = pow(q.denominator, -1, m)
    except ValueError:
        raise IntegralityFailure(f"{q} is not integral mod {m}") from None
    return (q.numerator * dinv) % m


def reduce_scalar(value, target: Ring):
    """The image of a rational value in target: an int or Fraction goes to
    its residue in Z/m (fraction_mod) and to the exact quotient
    numerator/denominator in any other ring, IntegralityFailure when there
    is none.  A tuple maps coordinatewise into a QuotientExtension, a Poly or
    Series coefficientwise into a PolyRing or SeriesRing (the Series cut to
    the ring's precision), zero coefficients dropped; an int or Fraction
    goes to a constant of either."""
    if isinstance(target, ModularIntegers):
        return fraction_mod(value, target.m)
    if isinstance(value, Poly) and isinstance(target, PolyRing):
        B = target.base
        return Poly(target, {e: v for e, c in value.terms.items()
                             if not B.is_zero(v := reduce_scalar(c, B))})
    if isinstance(value, Series) and isinstance(target, SeriesRing):
        return value.truncate(target.prec).map_coefficients(
            lambda c: reduce_scalar(c, target.base), target.base)
    if isinstance(target, (PolyRing, SeriesRing)):
        return target.const(reduce_scalar(value, target.base))
    if isinstance(value, tuple) and isinstance(target, QuotientExtension):
        return tuple([reduce_scalar(c, target.base) for c in value])
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"cannot reduce {type(value)} into {target!r}")
    q = target.divide(target.from_int(value.numerator), target.from_int(value.denominator))
    if q is None:
        raise IntegralityFailure(f"{value} is not integral in {target!r}")
    return q


def series_reduce(s: Series, target_ring: Ring) -> Series:
    """Coefficientwise reduce_scalar over a whole (possibly multivariate) series."""
    return s.map_coefficients(lambda c: reduce_scalar(c, target_ring), target_ring)

