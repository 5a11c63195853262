"""Reference implementations kept only as test oracles.

Each one is the plain algorithm that the library's faster version replaced:
term-by-term composition, full-precision Newton inversion, degree-by-degree
reversion, the fixed-point w-series at full precision, full-precision
`find_iso` with its row-by-row solve, long division, and the dict-based
integer q-series with its psi operator.  They share no code path with the
functions they check, beyond `Series` arithmetic and `compose`
(`compose_oracle` uses no `compose`, and `QSeries` shares nothing).
"""

from __future__ import annotations

from math import comb

from chromalg.errors import AlgebraError, CompositionError, NotInvertible
from chromalg.fgl import FormalGroupLaw, IsoResult, Obstruction
from chromalg.rings import Ring
from chromalg.series import Series, SeriesCtx


def compose_oracle(f: Series, subs: dict) -> Series:
    """Substitution term by term: each term is tctx.const(c) times cached
    powers of the substitutions, and the terms are summed in degree order."""
    targets = [s for s in subs.values() if isinstance(s, Series)]
    if not targets:
        raise ValueError("need at least one substitution series")
    tctx = targets[0].ctx
    for s in targets:
        tctx.compatible(s.ctx)
    prec = min([f.ctx.prec] + [s.ctx.prec for s in targets])
    tctx = tctx.at_prec(prec)
    R = f.ctx.ring
    vals = []
    for v in f.ctx.vars:
        if v not in subs:
            raise ValueError(f"no substitution for {v}")
        s = subs[v]
        if not R.is_zero(s.constant_term()):
            raise CompositionError(f"substitution for {v} has nonzero constant term")
        vals.append(s.truncate(prec))
    pows = [{0: tctx.one()} for _ in vals]

    def power(i, k):
        cache = pows[i]
        if k not in cache:
            cache[k] = power(i, k - 1) * vals[i]
        return cache[k]

    out = tctx.zero()
    for e, c in sorted(f.terms.items(), key=lambda kv: sum(kv[0])):
        if sum(e) >= prec and sum(e) > 0:
            continue
        term = tctx.const(c)
        for i, k in enumerate(e):
            if k:
                term = term * power(i, k)
        out = out + term
    return out


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
    """find_iso with every degree step composing phi(F) and G(phi x, phi y)
    at precision N + 1, and intersecting the rows' solve_int lists (complete
    over Z, Q, Z_(p) and Z/m, where the tests use it)."""
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


class QSeries:
    """Integer Laurent q-series supported in [n0, prec): quadratic product,
    repeated multiplication for powers and a degree-by-degree inverse."""

    __slots__ = ("coeffs", "n0", "prec")

    def __init__(self, coeffs: dict, prec: int):
        self.coeffs = {n: c for n, c in coeffs.items() if c != 0 and n < prec}
        self.n0 = min(self.coeffs) if self.coeffs else 0
        self.prec = prec

    def __getitem__(self, n: int) -> int:
        return self.coeffs.get(n, 0)

    def __add__(self, o):
        prec = min(self.prec, o.prec)
        out = dict(self.coeffs)
        for n, c in o.coeffs.items():
            out[n] = out.get(n, 0) + c
        return QSeries(out, prec)

    def __sub__(self, o):
        return self + o.scale(-1)

    def scale(self, k: int):
        return QSeries({n: k * c for n, c in self.coeffs.items()}, self.prec)

    def __mul__(self, o):
        prec = min(self.prec, o.prec)
        out = {}
        for n1, c1 in self.coeffs.items():
            for n2, c2 in o.coeffs.items():
                n = n1 + n2
                if n < prec:
                    out[n] = out.get(n, 0) + c1 * c2
        return QSeries(out, prec)

    def __pow__(self, k: int):
        out = QSeries({0: 1}, self.prec)
        for _ in range(k):
            out = out * self
        return out

    def divide_exact(self, k: int):
        out = {}
        for n, c in self.coeffs.items():
            if c % k:
                raise AlgebraError(f"coefficient {c} of q^{n} not divisible by {k}")
            out[n] = c // k
        return QSeries(out, self.prec)

    def shift(self, m: int):
        return QSeries({n + m: c for n, c in self.coeffs.items()}, self.prec + m)

    def inverse_unit(self):
        """Inverse of a series with leading coefficient +-1 at its lowest order."""
        m = self.n0
        lead = self[m]
        if lead not in (1, -1):
            raise AlgebraError("leading coefficient must be a unit")
        prec = self.prec - m
        norm = self.shift(-m)   # starts at 0
        inv = {0: lead}
        for n in range(1, prec):
            acc = 0
            for k in range(1, n + 1):
                acc += norm[k] * inv.get(n - k, 0)
            inv[n] = -lead * acc
        return QSeries(inv, prec).shift(-m)

    def __eq__(self, o):
        prec = min(self.prec, o.prec)
        for n in set(self.coeffs) | set(o.coeffs):
            if n < prec and self[n] != o[n]:
                return False
        return True


def psi_defect_oracle(f: QSeries) -> QSeries:
    """f(q^2) - f(q), with f(q^2) taken at the precision of f."""
    return QSeries({2 * n: c for n, c in f.coeffs.items()}, f.prec) - f
