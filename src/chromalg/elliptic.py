"""Weierstrass curves: invariants, reduction types, formal groups, points,
automorphisms and node uniformization.

Formal-group arithmetic follows the classical route through the (z, w) plane,
z = -x/y, w = -1/y, where the curve reads w = z^3 + a1 z w + a2 z^2 w
+ a3 w^2 + a4 z w^2 + a6 w^3 and chord slopes are honest power series.  All
operations stay over the curve's coefficient ring; no denominators appear.
The w-series is a Newton iteration (Hensel's lemma) checked by one last
fixed-point pass.  Every group operation is one chord and one negation
(_chord_sum; Silverman IV.1): the line w = lam z + nu through two points meets
the curve again at (z3, lam z3 + nu), and the sum is -z3/(1 - a1 z3 - a3 w3).
The law takes the chord through two generic points, two_series the tangent at
(z, w(z)), sum_with_point the chord through (z, w(z)) and a fixed point, and
curve_log integrates dz/G_w: none composes series or leaves the (z, w) plane.

This chord law is run per curve by fgl.fgl_from_curve, by the moduli chart
transitions, and once per process on the chart A = 1, B = b over
Z[[b]]/(b^m) for the universal level-3 law, which fgl.universal_family_law
rehomogenises to Z[A, B] by weight (exact, as every coefficient is
weight-homogeneous with b-degree below m).  Family members over other rings
are that law's image under base change (fgl.family_law), not chord runs;
ell.formal-group-family runs the chord over Z[A, B] as its check.
reduction_type reads the height from each fiber's own 2-series, all
univariate, from that fiber's w-series.  Its claim is about particular
fibers, so base change would make it agree with itself.

The canonical-subgroup quotients of fgl take the chord with a 2-torsion point
(sum_with_point) and curve_log on one lifted curve: the family curve over
Q[[b]], or for a conic law (x + y + b xy)/(1 - c xy) the nodal cubic
y^2 - b xy = x^3 - c x^2 over Q, whose formal group it is.

Points need no group law beyond the tangent: three_torsion_check doubles P
along its tangent line, and find_node reads a nodal fiber's node off the
closed form x0 = (18 b6 - b2 b4)/c4 of the double root of
4x^3 + b2 x^2 + 2 b4 x + b6.
"""

from __future__ import annotations

from dataclasses import dataclass

from .convert import descend_scalar
from .errors import (AlgebraError, JUndefined, NotInvertible, NotNodal,
                     NotOnCurve)
from .poly import PolyRing
from .rings import ZZ, Ring
from .series import Series, SeriesCtx


@dataclass(frozen=True)
class WeierstrassCurve:
    ring: Ring
    a1: object
    a2: object
    a3: object
    a4: object
    a6: object

    def coefficients(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def map_coefficients(self, fn, target: Ring) -> "WeierstrassCurve":
        return WeierstrassCurve(target, *(fn(a) for a in self.coefficients()))


def curve(ring: Ring, a1, a2, a3, a4, a6) -> WeierstrassCurve:
    return WeierstrassCurve(ring, a1, a2, a3, a4, a6)


def gamma1_3_curve(ring: Ring, A, B) -> WeierstrassCurve:
    """The level-3 family y^2 + A xy + B y = x^3, i.e. (a1,..,a6) = (A,0,B,0,0)."""
    z = ring.zero()
    return WeierstrassCurve(ring, A, z, B, z, z)


def universal_gamma1_3():
    """Family curve over Z[A, B] with |A| = 1, |B| = 3."""
    P = PolyRing(ZZ, ("A", "B"), weights=(1, 3))
    return gamma1_3_curve(P, P.gen("A"), P.gen("B")), P


@dataclass(frozen=True)
class CurveInvariants:
    b2: object
    b4: object
    b6: object
    b8: object
    c4: object
    c6: object
    disc: object


def invariants(E: WeierstrassCurve) -> CurveInvariants:
    R = E.ring
    a1, a2, a3, a4, a6 = E.coefficients()
    m = R.mul
    s = R.add

    def lin(*pairs):
        out = R.zero()
        for k, v in pairs:
            out = s(out, R.scale_int(v, k))
        return out

    b2 = lin((1, m(a1, a1)), (4, a2))
    b4 = lin((2, a4), (1, m(a1, a3)))
    b6 = lin((1, m(a3, a3)), (4, a6))
    b8 = lin((1, m(m(a1, a1), a6)), (4, m(a2, a6)), (-1, m(a1, m(a3, a4))),
             (1, m(a2, m(a3, a3))), (-1, m(a4, a4)))
    c4 = lin((1, m(b2, b2)), (-24, b4))
    c6 = lin((-1, m(b2, m(b2, b2))), (36, m(b2, b4)), (-216, b6))
    disc = lin((-1, m(m(b2, b2), b8)), (-8, m(b4, m(b4, b4))),
               (-27, m(b6, b6)), (9, m(b2, m(b4, b6))))
    return CurveInvariants(b2, b4, b6, b8, c4, c6, disc)


def j_invariant(E: WeierstrassCurve):
    """(c4^3, disc) as an exact fraction; raises JUndefined if disc = 0.

    Over a field the reduced scalar c4^3/disc is returned instead.
    """
    R = E.ring
    inv = invariants(E)
    if R.is_zero(inv.disc):
        raise JUndefined("discriminant vanishes")
    num = R.mul(inv.c4, R.mul(inv.c4, inv.c4))
    q = R.divide(num, inv.disc)
    if q is not None and R.is_unit(inv.disc):
        return q
    return (num, inv.disc)


# -- reduction types ----------------------------------------------------------

SMOOTH_ORDINARY = "SmoothOrdinary"
SMOOTH_SUPERSINGULAR = "SmoothSupersingular"
NODAL = "Nodal"
ADDITIVE = "Additive"


def reduction_type(E: WeierstrassCurve) -> str:
    R = E.ring
    inv = invariants(E)
    if R.is_zero(inv.disc):
        return ADDITIVE if R.is_zero(inv.c4) else NODAL
    if R.char != 2:
        raise AlgebraError("supersingularity test implemented for characteristic 2 fields")
    # height of the 2-series, cross-checked with j = 0: [2](z) starts at z^2
    # at height 1 and at z^4 at height 2; c4 is read only when c2 vanishes
    c2 = two_series(E, 2).ucoeff(2)
    j_zero = R.is_zero(inv.c4)  # j = c4^3/disc vanishes iff c4 does
    if not R.is_zero(c2):
        if j_zero:
            raise AlgebraError("height-1 series but j = 0: inconsistent classification")
        return SMOOTH_ORDINARY
    if R.is_zero(two_series(E, 4).ucoeff(4)):
        raise AlgebraError("2-series vanishes to precision; cannot read height")
    if not j_zero:
        raise AlgebraError("height-2 series but j != 0: inconsistent classification")
    return SMOOTH_SUPERSINGULAR


# -- formal group --------------------------------------------------------------

def curve_w_series(E: WeierstrassCurve, prec: int) -> Series:
    """w(z) with w = z^3 + a1 z w + a2 z^2 w + a3 w^2 + a4 z w^2 + a6 w^3.

    Newton on G(w) = w - (z^3 + a1 z w + ...), as in Hensel's lemma: from
    w = z^3, exact below z^4, each step doubles the precision up to prec, so
    max(0, ceil(log2(prec / 4))) steps.  G'(0) = 1, so no step divides by an
    integer.  A last fixed-point pass at full precision must reproduce w."""
    R = E.ring
    ctx = SeriesCtx(R, ("z",), prec)
    w = ctx.series({(3,): R.one()})
    known = 4
    while known < prec:
        order = min(2 * known, prec)
        w = _w_newton_step(E, Series(ctx.at_prec(order), w.terms), known)
        known = order
    image = _w_image(E, w, w * w)
    if image != w:
        raise AlgebraError(f"w-series did not converge at precision {prec}")
    return image


def _w_image(E: WeierstrassCurve, w: Series, w2: Series) -> Series:
    """z^3 + (a1 z + a2 z^2) w + (a3 + a4 z) w^2 + a6 w^3 at w's precision,
    given w2 = w^2; a term whose coefficient is zero is not built."""
    R = E.ring
    a1, a2, a3, a4, a6 = E.coefficients()
    z = w.ctx.gen("z")
    out = z * z * z
    for c, term in ((a1, lambda: z * w), (a2, lambda: z * z * w), (a3, lambda: w2),
                    (a4, lambda: z * w2), (a6, lambda: w2 * w)):
        if not R.is_zero(c):
            out = out + term().scale(c)
    return out


def _w_derivative(E: WeierstrassCurve, w: Series, w2: Series) -> Series:
    """G'(w) = 1 - a1 z - a2 z^2 - 2 a3 w - 2 a4 z w - 3 a6 w^2 at w's
    precision, given w2 = w^2; a term whose coefficient is zero is not built."""
    R = E.ring
    a1, a2, a3, a4, a6 = E.coefficients()
    ctx = w.ctx
    z = ctx.gen("z")
    out = ctx.one()
    for c, term in ((a1, lambda: z), (a2, lambda: z * z), (R.scale_int(a3, 2), lambda: w),
                    (R.scale_int(a4, 2), lambda: z * w), (R.scale_int(a6, 3), lambda: w2)):
        if not R.is_zero(c):
            out = out - term().scale(c)
    return out


def _w_newton_step(E: WeierstrassCurve, w: Series, known: int) -> Series:
    """w - G(w) * G'(w)^-1 at w's precision P, for w exact below z^known and
    P <= 2 * known.  G(w) has order >= known, so G'(w)^-1 is needed only
    below P - known; its terms are then exact enough at P."""
    ctx = w.ctx
    w2 = w * w
    resid = w - _w_image(E, w, w2)
    lo = ctx.prec - known
    h = _w_derivative(E, w.truncate(lo), w2.truncate(lo)).inverse()
    return w - resid * Series(ctx, h.terms)


def formal_group_of_curve(E: WeierstrassCurve, N: int) -> Series:
    """Group law F(z1, z2) to total degree N, exact over the curve's ring."""
    R = E.ring
    prec = N + 1
    wz = curve_w_series(E, N + 2)
    ctx2 = SeriesCtx(R, ("z1", "z2"), prec)
    z1 = ctx2.gen("z1")
    z2 = ctx2.gen("z2")
    # chord slope in the (z, w) plane: sum_n w_n * (z2^n - z1^n)/(z2 - z1)
    ws = [(n, wz.ucoeff(n)) for n in range(3, N + 2)]
    lam = ctx2.series({(i, n - 1 - i): wn for n, wn in ws for i in range(n)})
    w1 = ctx2.series({(n, 0): wn for n, wn in ws})
    F = _chord_sum(E, lam, w1 - lam * z1, z1, z2)
    # unit axiom check F(z, 0) = z
    restr = F.set_var_zero("z2").drop_var("z2")
    zz = SeriesCtx(R, ("z1",), prec).gen("z1")
    if not restr == zz:
        raise AlgebraError("formal group construction failed the unit axiom")
    return F


def _chord_sum(E: WeierstrassCurve, lam: Series, nu: Series, z1: Series, z2: Series) -> Series:
    """z of P1 + P2 for the points at z1 and z2 on the line w = lam z + nu
    (Silverman IV.1): the line meets the curve again at z3, w3 = lam z3 + nu,
    and P1 + P2 is that third point's negation -z3/(1 - a1 z3 - a3 w3)."""
    R = E.ring
    a1, a2, a3, a4, a6 = E.coefficients()
    one = lam.ctx.one()
    lam2 = lam * lam
    num = lam.scale(a1) + lam2.scale(a3)
    if not all(map(R.is_zero, (a2, a4, a6))):   # the level-3 family has them all zero
        num = (num + nu.scale(a2) + (lam * nu).scale(R.scale_int(a4, 2))
               + (lam2 * nu).scale(R.scale_int(a6, 3)))
        num = num * (one + lam.scale(a2) + lam2.scale(a4) + (lam2 * lam).scale(a6)).inverse()
    z3 = (-z1) - z2 - num
    w3 = lam * z3 + nu
    return (-z3) * (one - z3.scale(a1) - w3.scale(a3)).inverse()


def two_series(E: WeierstrassCurve, N: int) -> Series:
    """[2](z) below z^(N+1): F(z, z) of formal_group_of_curve(E, N), from the
    tangent line at (z, w(z)) and univariate series only.

    The slope is lam = w'(z) and the intercept nu = w - z lam; the chord
    formula with z1 = z2 = z, on the same w-series, gives [2](z)."""
    prec = N + 1
    w = curve_w_series(E, N + 2)
    z = SeriesCtx(E.ring, ("z",), prec).gen("z")
    # w' is certified only below z^(N+1): its z^(N+1) term needs w_(N+2)
    lam = w.derivative().truncate(prec)
    return _chord_sum(E, lam, w.truncate(prec) - z * lam, z, z)


def sum_with_point(E: WeierstrassCurve, x0, y0, N: int, w: Series | None = None) -> Series:
    """z of P(z) + T for the point T = (x0, y0), as a power series in z known
    below N; its constant term is T's formal coordinate z0 = -x0/y0.

    The chord through (z, w(z)) and (z0, w0), w0 = -1/y0, has slope
    lam = (w(z) - w0)/(z - z0), so y0 and x0 must be units (NotInvertible
    otherwise), and so must the constant terms of the denominators in
    _chord_sum.  No step reads w at or above N.  A caller that already has
    the w-series, to precision at least N, passes it as w."""
    R = E.ring
    w = (w if w is not None else curve_w_series(E, N)).truncate(N)
    ctx = w.ctx
    z = ctx.gen("z")
    yi = R.inv(y0)
    z0 = ctx.const(R.neg(R.mul(x0, yi)))
    lam = (w + ctx.const(yi)) * (z - z0).inverse()
    return _chord_sum(E, lam, w - z * lam, z, z0)


def curve_log(E: WeierstrassCurve, N: int, w: Series | None = None) -> Series:
    """Formal logarithm below z^(N+1), the integral of the invariant
    differential (Q-algebra bases only; exact).

    On the curve G(z, w) = w - (z^3 + a1 z w + ...) = 0, the Euler relation
    z G_z + w G_w = -w (2 - a1 z - a3 w) turns omega = dx/(2y + a1 x + a3)
    into dz/G_w, G_w = 1 - a1 z - a2 z^2 - 2 a3 w - 2 a4 z w - 3 a6 w^2
    (Silverman IV.1), so the log reads w only below z^N.  A caller that
    already has the w-series, to precision at least N, passes it as w.
    """
    w = (w if w is not None else curve_w_series(E, N)).truncate(N)
    return _w_derivative(E, w, w * w).inverse().integrate()


# -- points --------------------------------------------------------------------

def on_curve(E: WeierstrassCurve, P) -> bool:
    R = E.ring
    x, y = P
    a1, a2, a3, a4, a6 = E.coefficients()
    lhs = R.add(R.mul(y, y), R.add(R.mul(a1, R.mul(x, y)), R.mul(a3, y)))
    rhs = R.add(R.mul(x, R.mul(x, x)),
                R.add(R.mul(a2, R.mul(x, x)), R.add(R.mul(a4, x), a6)))
    return R.eq(lhs, rhs)


def three_torsion_check(E: WeierstrassCurve, P) -> bool:
    """True iff [2]P = -P for an affine point P on E (so P has exact order 3),
    by tangent doubling.  A vertical tangent, 2y + a1 x + a3 = 0, means
    P = -P (order 2, or P singular): False.  Otherwise the tangent's slope
    lam gives [2]P = (x3, y3), x3 = lam^2 + a1 lam - a2 - 2x and
    y3 = lam (x - x3) - y - a1 x3 - a3; at x3 = x, y3 is the y of -P, so
    [2]P = -P exactly when x3 = x."""
    if not on_curve(E, P):
        raise NotOnCurve(f"{P} does not satisfy the curve equation")
    R = E.ring
    a1, a2, a3, a4, a6 = E.coefficients()
    x, y = P
    den = R.add(R.scale_int(y, 2), R.add(R.mul(a1, x), a3))
    if R.is_zero(den):
        return False
    num = R.add(R.scale_int(R.mul(x, x), 3),
                R.add(R.scale_int(R.mul(a2, x), 2), R.sub(a4, R.mul(a1, y))))
    lam = R.divide(num, den)
    if lam is None:
        raise NotInvertible("tangent slope needs a division unavailable in this ring")
    x3 = R.sub(R.add(R.mul(lam, lam), R.mul(a1, lam)), R.add(a2, R.scale_int(x, 2)))
    return R.eq(x3, x)


# -- isomorphisms and automorphisms ---------------------------------------------

def transform(E: WeierstrassCurve, u, r, s, t) -> WeierstrassCurve:
    """Coordinate change x = u^2 x' + r, y = u^3 y' + u^2 s x' + t."""
    return _transform_by_inverse(E, E.ring.inv(u), r, s, t)


def _moved_a1(E: WeierstrassCurve, ui, s):
    """A1 = (a1 + 2s)/u of the transformed curve, given ui = 1/u."""
    R = E.ring
    return R.mul(R.add(E.a1, R.scale_int(s, 2)), ui)


def _moved_a2(E: WeierstrassCurve, ui2, r, s):
    """A2 = (a2 - s a1 + 3r - s^2)/u^2 of the transformed curve, given
    ui2 = 1/u^2."""
    R = E.ring
    return R.mul(R.add(R.sub(E.a2, R.mul(s, E.a1)), R.sub(R.scale_int(r, 3), R.mul(s, s))), ui2)


def _transform_by_inverse(E: WeierstrassCurve, ui, r, s, t) -> WeierstrassCurve:
    """transform(E, u, r, s, t) given ui = 1/u."""
    R = E.ring
    a1, a2, a3, a4, a6 = E.coefficients()
    ui2 = R.mul(ui, ui)
    ui3 = R.mul(ui2, ui)
    ui4 = R.mul(ui2, ui2)
    ui6 = R.mul(ui3, ui3)
    m, ad, sb = R.mul, R.add, R.sub
    A3 = m(ad(a3, ad(m(r, a1), R.scale_int(t, 2))), ui3)
    A4 = m(ad(sb(a4, m(s, a3)),
              ad(R.scale_int(m(r, a2), 2),
                 ad(R.neg(m(ad(t, m(r, s)), a1)),
                    sb(R.scale_int(m(r, r), 3), R.scale_int(m(s, t), 2))))), ui4)
    A6 = m(ad(a6, ad(m(r, a4),
                     ad(m(m(r, r), a2),
                        ad(m(r, m(r, r)),
                           R.neg(ad(m(t, a3), ad(m(t, t), m(m(r, t), a1)))))))), ui6)
    return WeierstrassCurve(R, _moved_a1(E, ui, s), _moved_a2(E, ui2, r, s), A3, A4, A6)


def compose_transforms(R: Ring, g, h):
    """Parameters of applying h after g, i.e. tau_g o tau_h on coordinates."""
    u1, r1, s1, t1 = g
    u2, r2, s2, t2 = h
    u = R.mul(u1, u2)
    u1sq = R.mul(u1, u1)
    r = R.add(R.mul(u1sq, r2), r1)
    s = R.add(R.mul(u1, s2), s1)
    t = R.add(R.mul(R.mul(u1sq, u1), t2), R.add(R.mul(R.mul(u1sq, s1), r2), t1))
    return (u, r, s, t)


def curves_equal(E1: WeierstrassCurve, E2: WeierstrassCurve) -> bool:
    R = E1.ring
    return all(R.eq(a, b) for a, b in zip(E1.coefficients(), E2.coefficients()))


def automorphism_group(E: WeierstrassCurve) -> list:
    """Every (u, r, s, t) preserving E over a finite ring, in the
    lexicographic order of R.elements(); closure verified from generators.

    Each unit u is inverted once here.  A1 depends only on (u, s) and A2
    only on (u, r, s), so t is searched only where both already match.

    The closure check grows words from the identity.  It takes generators
    from the found set S in order, an element becoming one only when it is
    not yet a word in the earlier ones, and composes each word on the right
    with each generator once; every product must lie in S.  If none leaves
    S, the words are S (the identity is a power of a generator), and for a
    in S and a word b = g1...gk, a.b = ((a.g1)...).gk is a word again: S is
    closed.  A closed S keeps every product, so the check raises exactly
    when some pair of S composes outside it.  Each generator at least
    doubles the words of a group, so a group takes at most |S| log2 |S|
    compositions."""
    R = E.ring
    elems = R.elements()
    units = [e for e in elems if R.is_unit(e)]
    out = []
    for u in units:
        ui = R.inv(u)
        ui2 = R.mul(ui, ui)
        ss = [s for s in elems if R.eq(_moved_a1(E, ui, s), E.a1)]
        for r in elems:
            for s in ss:
                if not R.eq(_moved_a2(E, ui2, r, s), E.a2):
                    continue
                for t in elems:
                    if curves_equal(_transform_by_inverse(E, ui, r, s, t), E):
                        out.append((u, r, s, t))
    # group closure; a finite ring's elements are canonical, so they are keys
    keyed = set(out)
    identity = (R.one(), R.zero(), R.zero(), R.zero())
    words, seen, gens = [identity], {identity}, []
    for x in out:
        if x in seen:
            continue
        gens.append(x)
        pairs = [(w, x) for w in words]         # the old words by the new generator
        done = len(words)
        words.append(x)
        seen.add(x)
        while pairs or done < len(words):
            if not pairs:                       # a new word by every generator
                pairs = [(words[done], g) for g in gens]
                done += 1
            p = compose_transforms(R, *pairs.pop())
            if p not in keyed:
                raise AlgebraError("automorphism set is not closed under composition")
            if p not in seen:
                seen.add(p)
                words.append(p)
    return out


_ORDER_CAP = 64


def transform_order(R: Ring, g) -> int:
    ident = (R.one(), R.zero(), R.zero(), R.zero())
    cur = g
    for k in range(1, _ORDER_CAP + 1):
        if all(R.eq(a, b) for a, b in zip(cur, ident)):
            return k
        cur = compose_transforms(R, cur, g)
    raise AlgebraError("order exceeds cap")


# -- node uniformization ---------------------------------------------------------

@dataclass
class NodalGroupLaw:
    """Multiplication (t*t' - c)/(t + t' + b) with unit at t = infinity, on the
    coordinate t = (y - y0)/(x - x0) of a nodal cubic with node (x0, y0)."""
    ring: Ring
    b: object
    c: object

    def as_fraction(self):
        """(numerator, denominator) polynomials in t, u over the base ring."""
        P = PolyRing(self.ring, ("t", "u"))
        t, u = P.gen("t"), P.gen("u")
        return (t * u - P.const(self.c), t + u + P.const(self.b))


@dataclass
class NodeData:
    node: tuple
    coordinate: str
    law: NodalGroupLaw
    fgl_at_infinity: "object"  # FormalGroupLaw, import cycle avoided


def find_node(E: WeierstrassCurve):
    """Singular point of a nodal curve.  In characteristic 0, x0 is the double
    root of 4x^3 + b2 x^2 + 2 b4 x + b6, which on a nodal fiber (c4 != 0) has
    the closed form x0 = (18 b6 - b2 b4)/c4, and y0 = -(a1 x0 + a3)/2; over
    finite fields, exhaustive search."""
    R = E.ring
    inv = invariants(E)
    if not R.is_zero(inv.disc):
        raise NotNodal("discriminant does not vanish")
    if R.is_zero(inv.c4):
        raise NotNodal("additive degeneration, not a node")
    if R.char == 0:
        Q, lift = R.rationalize()
        b2, b4, b6, c4 = (lift(inv.b2), lift(inv.b4), lift(inv.b6), lift(inv.c4))
        x0q = Q.divide(Q.sub(Q.scale_int(b6, 18), Q.mul(b2, b4)), c4)
        if x0q is None:
            raise NotNodal("c4 is not invertible over the rational lift")
        a1q, a3q = lift(E.a1), lift(E.a3)
        y0q = Q.divide(Q.neg(Q.add(Q.mul(a1q, x0q), a3q)), Q.from_int(2))
        # map back into the curve ring when possible
        x0 = descend_scalar(x0q, R)
        y0 = descend_scalar(y0q, R)
    else:
        x0 = y0 = None
        for xe in R.elements():
            for ye in R.elements():
                if _is_singular_at(E, xe, ye):
                    x0, y0 = xe, ye
                    break
            if x0 is not None:
                break
        if x0 is None:
            raise NotNodal("no singular point found over the finite base")
    if not _is_singular_at(E, x0, y0):
        raise NotNodal("singularity equations fail at the computed point")
    return (x0, y0)


def tangent_gradient(E: WeierstrassCurve, P):
    """(F_x, F_y) of the defining polynomial at an affine point; the tangent is
    horizontal exactly when F_x = 0 with F_y invertible-or-nonzero."""
    R = E.ring
    a1, a2, a3, a4, a6 = E.coefficients()
    x0, y0 = P
    fy = R.add(R.scale_int(y0, 2), R.add(R.mul(a1, x0), a3))
    fx = R.sub(R.mul(a1, y0),
               R.add(R.scale_int(R.mul(x0, x0), 3),
                     R.add(R.scale_int(R.mul(a2, x0), 2), a4)))
    return fx, fy


def _is_singular_at(E: WeierstrassCurve, x0, y0) -> bool:
    if not on_curve(E, (x0, y0)):
        return False
    fx, fy = tangent_gradient(E, (x0, y0))
    return E.ring.is_zero(fy) and E.ring.is_zero(fx)


def node_uniformization(E: WeierstrassCurve, N: int = 8) -> NodeData:
    """Node, rational coordinate, nodal group law, and the formal group law of
    the smooth locus at infinity.

    After translating the node to the origin the curve reads
    Y^2 + b XY + c X^2 = X^3 with b = a1 and c = -(3 x0 + a2); the smooth locus
    is parametrized by t = Y/X as (X, Y) = (t^2 + bt + c, t(t^2 + bt + c)), the
    law is (t t' - c)/(t + t' + b) with unit at infinity, and the coordinate
    1/t at the unit carries the group law (x + y + b xy)/(1 - c xy).
    """
    from .fgl import conic_fgl
    R = E.ring
    x0, y0 = find_node(E)
    b = E.a1
    c = R.neg(R.add(R.scale_int(x0, 3), E.a2))
    # symbolic check: (x0 + X(t), y0 + Y(t)) satisfies the curve equation
    P = PolyRing(R, ("t",))
    t = P.gen("t")
    X = t * t + t * P.const(b) + P.const(c)
    Y = t * X
    xs = X + P.const(x0)
    ys = Y + P.const(y0)
    a1, a2, a3, a4, a6 = (P.const(a) for a in E.coefficients())
    eqn = ys * ys + a1 * xs * ys + a3 * ys - xs * xs * xs - a2 * xs * xs - a4 * xs - a6
    if not eqn.is_zero():
        raise NotNodal("parametrization does not satisfy the curve equation")
    law = NodalGroupLaw(R, b, c)
    fgl = conic_fgl(R, b, c, N)
    coord = "t = (y - y0)/(x - x0), unit at t = infinity"
    return NodeData((x0, y0), coord, law, fgl)
