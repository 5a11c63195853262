"""Reference implementations kept only as test oracles.

Each one is the plain algorithm that the library's faster version replaced:
full-precision Newton inversion, degree-by-degree reversion, the fixed-point
w-series at full precision, full-precision `find_iso`, and long division.
They share no code path with the functions they check, beyond `Series`
arithmetic and `compose`.
"""

from __future__ import annotations

from math import comb

from chromalg.errors import NotInvertible
from chromalg.fgl import FormalGroupLaw, IsoResult, Obstruction
from chromalg.rings import Ring
from chromalg.series import Series, SeriesCtx


def inverse_oracle(f: Series) -> Series:
    """Newton g <- g*(2 - f*g) with every step at full precision."""
    R = f.ctx.ring
    c0 = f.constant_term()
    if not R.is_unit(c0):
        raise NotInvertible("constant term is not a unit")
    g = f.ctx.const(R.inv(c0))
    order = 1
    two = f.ctx.from_int(2)
    while order < f.ctx.prec:
        g = g * (two - f * g)
        order *= 2
    return g


def reverse_oracle(f: Series) -> Series:
    """Reversion one degree at a time: prec - 2 full-precision compositions."""
    R = f.ctx.ring
    if not R.is_zero(f.constant_term()):
        raise NotInvertible("reversion needs zero constant term")
    f1 = f.ucoeff(1)
    if not R.is_unit(f1):
        raise NotInvertible("linear coefficient is not a unit")
    inv_f1 = R.inv(f1)
    ctx = f.ctx
    g_terms = {(1,): inv_f1}
    for n in range(2, ctx.prec):
        comp = f.compose({ctx.vars[0]: Series(ctx, dict(g_terms))})
        # f(g + c x^n) adds f1*c at degree n
        c = R.neg(R.mul(inv_f1, comp.ucoeff(n)))
        if not R.is_zero(c):
            g_terms[(n,)] = c
    return Series(ctx, g_terms)


def curve_w_series_oracle(E, prec: int) -> Series:
    """Fixed-point iteration for w(z), every pass at full precision."""
    a1, a2, a3, a4, a6 = E.coefficients()
    ctx = SeriesCtx(E.ring, ("z",), prec)
    z = ctx.gen("z")
    z3 = z * z * z
    w = z3
    for _ in range(prec):
        w2 = w * w
        new = (z3 + (z * w).scale(a1) + (z * z * w).scale(a2) + w2.scale(a3)
               + (z * w2).scale(a4) + (w2 * w).scale(a6))
        if new == w:
            break
        w = new
    return w


def find_iso_oracle(F: FormalGroupLaw, G: FormalGroupLaw, mode: str = "strict",
                    N: int | None = None, unit_candidates=None):
    """find_iso with every degree step composing at precision N + 1."""
    R = F.ring
    if N is None:
        N = min(F.prec, G.prec) - 1
    if mode == "strict":
        candidates = [R.one()]
    else:
        candidates = unit_candidates if unit_candidates is not None else R.unit_candidates(2)
    fails = {}
    ctx1 = SeriesCtx(R, ("t",), N + 1)
    for c1 in candidates:
        phi_terms = {(1,): c1}
        ok = True
        for d in range(2, N + 1):
            phi = Series(ctx1, dict(phi_terms))
            phiu = phi.compose({"t": F.ctx.gen("x")})
            phiv = phi.compose({"t": F.ctx.gen("y")})
            resid = G.F.compose({"x": phiu, "y": phiv}) - phi.compose({"t": F.F})
            sols = None
            for a in range(1, d):
                cand = R.solve_int(comb(d, a), resid.coefficient((a, d - a)))
                sols = cand if sols is None else [s for s in sols if any(R.eq(s, c) for c in cand)]
                if not sols:
                    break
            pure_bad = any(not R.is_zero(resid.coefficient(e)) for e in [(d, 0), (0, d)])
            if not sols or pure_bad:
                fails[R.render(c1)] = d
                ok = False
                break
            if not R.is_zero(sols[0]):
                phi_terms[(d,)] = sols[0]
        if ok:
            return IsoResult(Series(ctx1, dict(phi_terms)), c1)
    return Obstruction(max(fails.values()) if fails else 2, fails)


def series_div_oracle(num: list, den: list, ring: Ring, n: int) -> list:
    """Long division: first n coefficients of num/den (den[0] a unit)."""
    out = []
    inv0 = ring.inv(den[0])
    rem = list(num) + [ring.zero()] * n
    for k in range(n):
        c = ring.mul(rem[k], inv0)
        out.append(c)
        for j, dj in enumerate(den):
            if k + j < len(rem):
                rem[k + j] = ring.sub(rem[k + j], ring.mul(c, dj))
    return out
