"""Exception types shared across the library."""


class AlgebraError(Exception):
    """Base class for all chromalg errors."""


class CompositionError(AlgebraError):
    """Series substituted into a positive-order slot has a constant term."""


class NotInvertible(AlgebraError):
    """Element (or leading coefficient) is not a unit in its ring."""


class PreparationFailed(AlgebraError):
    """No unit coefficient below the truncation order."""


class TruncationError(AlgebraError):
    """Requested data lies beyond the stored truncation order."""


class MixedVariablesError(AlgebraError):
    """Binary series operation on carriers with different variable sets."""


class JUndefined(AlgebraError):
    """j-invariant requested where the discriminant is not invertible."""


class NotOnCurve(AlgebraError):
    """Point does not satisfy the Weierstrass equation."""


class NotNodal(AlgebraError):
    """Curve is not nodal (node-specific operation refused)."""


class HeightExceedsPrecision(AlgebraError):
    """[p](x) vanishes identically to the stored truncation order."""


class NeedsTorsionFree(AlgebraError):
    """Operation requires a torsion-free coefficient ring."""


class IntegralityFailure(AlgebraError):
    """Computed coefficients do not lie in the target ring."""


class NotOrdinary(AlgebraError):
    """Mod-2 reduction does not have height one."""


class QuotientPrecisionError(AlgebraError):
    """Isogeny quotient could not be certified at the target precision."""


class RecognitionFailed(AlgebraError):
    """No parameter/isomorphism pair lifts to the requested 2-adic level."""


class NotAFrobeniusLift(AlgebraError):
    """psi(x) - x^2 is not divisible by 2."""


class FreenessViolation(AlgebraError):
    """Poincare-series convolution identity fails for a quotient module."""


class InvalidKernel(AlgebraError):
    """Kernel polynomial does not match the distinguished factor of [2](x)."""

