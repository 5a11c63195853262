"""Reference implementations kept only as test oracles.

Each one is the plain algorithm that the library's faster version replaced:
total evaluation at scalars with a power per term, term-by-term
composition, the homomorphism residual f(F) - G(f, f) as four
such compositions, full-precision Newton inversion, degree-by-degree
reversion, Newton reversion with two compositions per step, the
fixed-point w-series at full precision, the chord law as the formal inverse
composed with the chord's third point, the chord with a fixed point on
(X, Y) with each pole kept as a power of z and the curve log through the
power series w/z^3, the Q[[b]] lift of `quotient_by_subgroup` on those two
at four guard degrees above the output precision, with lam = 2 L(f^-1)
from the degree-by-degree reversion of f, its quotient law as the
reverse of the log composed with lam(x) + lam(y), a conic's lift from the
closed forms of its isogeny and log in place of its nodal cubic's chord,
full-precision `find_iso` with its row-by-row solve, long division, the dict-based
integer q-series with its psi operator, E4, E6, Delta and j, the Milnor
product by nested
recursion over dict-copied budgets, the left ideal A.B+ spanned from every
element of B+, the breadth-first cyclicity search over
Steenrod elements, one convolution loop per Poincare-series factor, the
dense eliminations (field Gauss-Jordan, row HNF, Smith form) that rewrite
every entry of every row they touch, the regularity test over Z with its
own multiplication matrices per path, Weierstrass preparation returning its
unit, `recognize_in_family` with the F_2[s] law for its b-direction, its
columns as each c_d and G_s scaled by every power b^m, and
the coefficient loop of `QuotientExtension.mul`, the sum of products
`Ring.dot` as a loop, the series product that sums each coefficient
pair by pair with `R.mul` and `R.add`, the 2-series as F(x, x) of the
bivariate chord law, the automorphism search that transforms the
curve by every (u, r, s, t) and composes every pair of what it finds,
the profile closure that multiplies every pair of basis members, the node
of a nodal curve as a polynomial gcd by Euclid, the order-3 test that
adds a point to itself with the chord-tangent law, the reduction mod p
of an integer polynomial by int(c) % p per coefficient, and the
non-isomorphism degrees of `fgl.noniso-z13` from one linear-unit search per
target law, the p-adic valuation as a division loop at each of its call sites,
and the composite of two F_2 matrices as a loop over the middle basis.
They share no code path with the functions they check, beyond `Series`
arithmetic and `compose` (`compose_oracle` uses no `compose`,
and `QSeries` shares nothing), `milnor_product` and the coset reduction of
`QuotientModule` that the cyclicity search acts through, the
`milnor_product_mono` that the ideal and closure oracles call, the
`f2_rref` that the ideal oracle calls, the `linalg`
eliminations that the regularity oracle calls, the `family_law`,
`family_fgl_at` and `f2_solve` that the recognition oracle calls,
`_family_b_direction` that the column oracle calls, the
base-ring arithmetic that the quotient product oracle calls, `transform`,
`curves_equal` and `compose_transforms` behind the automorphism oracle, and
`invariants` and `descend_scalar` behind the node oracle, and `conic_fgl`
and `find_iso` behind the non-isomorphism oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd

from chromalg import steenrod as st
from chromalg.convert import descend_scalar
from chromalg.elliptic import (compose_transforms, curves_equal, gamma1_3_curve, invariants,
                               transform)
from chromalg.errors import (AlgebraError, CompositionError, NotInvertible, PreparationFailed,
                             RecognitionFailed)
from chromalg.fgl import (FamilyOrigin, FormalGroupLaw, IsoResult, Obstruction, Recognition,
                          _family_b_direction, _formal_two_torsion, conic_fgl, family_fgl_at, family_law, find_iso)
from chromalg.linalg import (f2_nullspace, f2_reduce, f2_rref, f2_solve, int_kernel,
                             smith_normal_form, solve_int_exact)
from chromalg.poly import Poly, PolyRing, monomials_of_weighted_degree
from chromalg.rings import ModularIntegers, PrimeField, QQ, QuotientExtension, Ring
from chromalg.series import Series, SeriesCtx, SeriesRing


def valuation_loop_oracle(n: int, p: int) -> tuple[int, int]:
    """(v, u) with n = p^v u, p not dividing u, by dividing out p one factor
    at a time; loops forever at n = 0."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def p_local_structure_oracle(diag: list[int], ncols: int, p: int) -> tuple[int, list[int]]:
    """linalg.p_local_structure with its valuation loop written out."""
    torsion = []
    for d in diag:
        v = 0
        while d % p == 0:
            d //= p
            v += 1
        if v > 0:
            torsion.append(v)
    return ncols - len(diag), sorted(torsion)


def nilpotent_bound_oracle(m: int):
    """ModularIntegers(m).nilpotent_bound(), m >= 2: k for m = p^k, None when
    m has another prime factor, by trial division."""
    p = next(d for d in range(2, m + 1) if m % d == 0)
    k = 0
    while m % p == 0:
        m //= p
        k += 1
    return k if m == 1 else None


def is_3_unit_oracle(q: Fraction) -> bool:
    """Whether q = +-3^k: numerator and denominator of |q| stripped of 3."""
    q = abs(q)
    n, d = q.numerator, q.denominator
    while n % 3 == 0:
        n //= 3
    while d % 3 == 0:
        d //= 3
    return n == 1 and d == 1


def two_valuation_mod_oracle(v: int, m: int) -> int:
    """The 2-adic valuation of v in Z/m, 10^9 at zero, by halving."""
    if v % m == 0:
        return 10 ** 9
    val = 0
    x = v % m
    while x % 2 == 0:
        x //= 2
        val += 1
    return val


def compose_f2_matrices_oracle(later: list[int], earlier: list[int], mid_dim: int) -> list[int]:
    """Columns of later o earlier, each the XOR of the columns of later at
    the bits below mid_dim of a column of earlier."""
    out = []
    for col in earlier:
        acc = 0
        for j in range(mid_dim):
            if (col >> j) & 1:
                acc ^= later[j]
        out.append(acc)
    return out


def dot_loop_oracle(R: Ring, xs: list, ys: list):
    """x1*y1 + ... + xn*yn by R.mul and R.add in that order; R.zero() when
    empty."""
    if not xs:
        return R.zero()
    acc = R.mul(xs[0], ys[0])
    for x, y in zip(xs[1:], ys[1:]):
        acc = R.add(acc, R.mul(x, y))
    return acc


def mul_loop_oracle(a: Series, b: Series) -> Series:
    """a*b term by term at the smaller precision, each coefficient the
    sum of its pairs' R.mul products by R.add, in the order of a's terms and
    then of b's terms by total degree; zero sums are dropped at the end."""
    R = a.ctx.ring
    prec = min(a.ctx.prec, b.ctx.prec)
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in sorted(b.terms.items(), key=lambda kv: sum(kv[0])):
            if sum(e1) + sum(e2) >= prec:
                continue
            e = tuple(x + y for x, y in zip(e1, e2))
            p = R.mul(c1, c2)
            out[e] = R.add(out[e], p) if e in out else p
    return Series(a.ctx.at_prec(prec), {e: c for e, c in out.items() if not R.is_zero(c)})


def eval_scalars_oracle(s: Series, values: dict):
    """Total evaluation of s at ring scalars, one per variable: each term's
    coefficient times R.pow of each value to its exponent, summed by R.add
    in the order of the terms."""
    R = s.ctx.ring
    out = R.zero()
    for e, c in s.terms.items():
        term = c
        for v, k in zip(s.ctx.vars, e):
            if k:
                term = R.mul(term, R.pow(values[v], k))
        out = R.add(out, term)
    return out


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


def hom_residual_oracle(f: Series, F: Series, G: Series) -> Series:
    """f(F(x, y)) - G(f(x), f(y)) as its four compositions, each made by
    compose_oracle."""
    t = f.ctx.vars[0]
    fx = compose_oracle(f, {t: F.ctx.gen("x")})
    fy = compose_oracle(f, {t: F.ctx.gen("y")})
    return compose_oracle(f, {t: F}) - compose_oracle(G, {"x": fx, "y": fy})


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


def reverse_newton_oracle(f: Series) -> Series:
    """Newton reversion g <- g - (f(g) - x) * f'(g)^-1, doubling the correct
    precision per step from 2 up to prec: two compositions per step and no
    division by integers."""
    R = f.ctx.ring
    if not R.is_zero(f.constant_term()):
        raise NotInvertible("reversion needs zero constant term")
    f1 = f.ucoeff(1)
    if not R.is_unit(f1):
        raise NotInvertible("linear coefficient is not a unit")
    var = f.ctx.vars[0]
    df = f.derivative()
    order = 2
    g = Series(f.ctx.at_prec(order), {(1,): R.inv(f1)})
    while order < f.ctx.prec:
        known, order = order, min(2 * order, f.ctx.prec)
        ctx = f.ctx.at_prec(order)
        g = Series(ctx, g.terms)
        resid = f.truncate(order).compose({var: g}) - ctx.gen(var)
        # resid has order >= known, so f'(g)^-1 is needed only below
        # order - known; its terms are then exact enough at prec `order`.
        lo = order - known
        h = df.truncate(lo).compose({var: g.truncate(lo)}).inverse()
        g = g - resid * Series(ctx, h.terms)
    return Series(f.ctx, g.terms)


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


def formal_group_of_curve_oracle(E, N: int) -> Series:
    """F(z1, z2) to total degree N as the formal inverse
    i(z) = -z/(1 - a1 z - a3 w(z)) composed with the z of the third point
    on the chord through (z1, w(z1)) and (z2, w(z2)) (Silverman IV.1)."""
    R = E.ring
    a1, a2, a3, a4, a6 = E.coefficients()
    prec = N + 1
    wz = curve_w_series_oracle(E, N + 2)
    ctx2 = SeriesCtx(R, ("z1", "z2"), prec)
    z1, z2 = ctx2.gen("z1"), ctx2.gen("z2")
    ws = [(n, wz.ucoeff(n)) for n in range(3, N + 2)]
    lam = ctx2.series({(i, n - 1 - i): wn for n, wn in ws for i in range(n)})
    nu = ctx2.series({(n, 0): wn for n, wn in ws}) - lam * z1
    lam2 = lam * lam
    den = ctx2.one() + lam.scale(a2) + lam2.scale(a4) + (lam2 * lam).scale(a6)
    num = (lam.scale(a1) + lam2.scale(a3) + nu.scale(a2)
           + (lam * nu).scale(R.scale_int(a4, 2)) + (lam2 * nu).scale(R.scale_int(a6, 3)))
    z3 = (-z1) - z2 - num * den.inverse()
    z = SeriesCtx(R, ("z",), prec).gen("z")
    inverse = (-z) * (z.ctx.one() - z.scale(a1) - wz.truncate(prec).scale(a3)).inverse()
    return inverse.compose({"z": z3})


def _over_z(s: Series, k: int) -> Series:
    """s/z^k, known k degrees less far than s; AlgebraError unless z^k
    divides s."""
    if any(e < k for (e,) in s.terms):
        raise AlgebraError(f"z^{k} does not divide the series")
    return Series(s.ctx.at_prec(s.prec - k), {(e - k,): c for (e,), c in s.terms.items()})


def sum_with_point_oracle(E, x0, y0, N: int) -> Series:
    """z of P(z) + (x0, y0) below z^N by the chord on X = z^-2 U and
    Y = -z^-3 U, for U = (w/z^3)^-1, with each pole kept as a power of z:
    the slope is z^-1 M, x3 = z^-2 S and y3 = z^-3 T.  y3 sums terms with a
    pole of order 3 into a result with none, so the chord loses three
    degrees, and it works at N + 3."""
    P = N + 3
    U = _over_z(curve_w_series_oracle(E, P + 3), 3).inverse()
    ctx = U.ctx
    z = ctx.gen("z")
    a1, a2, a3, a4, a6 = E.coefficients()

    def times_z(v, k):
        return ctx.series({(k,): v})

    M = (-U - times_z(y0, 3)) * (U - times_z(x0, 2)).inverse()
    S = M * M + (z * M).scale(a1) - times_z(a2, 2) - U - times_z(x0, 2)
    T = M * (U - S) + U - (z * S).scale(a1) - times_z(a3, 3)
    return -(_over_z(S, 2) * _over_z(T, 3).inverse())


def curve_log_oracle(E, N: int) -> Series:
    """Formal logarithm below z^(N+1) from ell' = (dx/dz)/(2y + a1 x + a3),
    with x = z/w and y = -1/w written through the power series V = w/z^3:
    ell' = (-2 - z V'/V)/(-2 + a1 z + a3 w)."""
    ctx = SeriesCtx(E.ring, ("z",), N)
    z = ctx.gen("z")
    w = curve_w_series_oracle(E, N + 4)
    V = _over_z(w, 3)
    numer = ctx.from_int(-2) - (V.ctx.gen("z") * V.derivative("z") * V.inverse()).truncate(N)
    den = ctx.from_int(-2) + z.scale(E.a1) + w.truncate(N).scale(E.a3)
    return (numer * den.inverse()).truncate(N).integrate().truncate(N + 1)


def quotient_lift_oracle(F: FormalGroupLaw):
    """(fgl_lift, isogeny_lift, tau) of quotient_by_subgroup, with the lift run
    at four guard degrees above F.prec and truncated afterwards; the chord
    oracle and the log oracle each build their own w-series."""
    out_prec = F.prec
    work = out_prec + 4
    if isinstance(F.origin, FamilyOrigin):
        Rq = SeriesRing(QQ, "b", F.origin.bprec)
        EQ = gamma1_3_curve(Rq, Rq.one(), Rq.gen())
        x0, y0 = _formal_two_torsion(EQ)
        s = sum_with_point_oracle(EQ, x0, y0, work).rename(("x",))
        tau = s.constant_term()
        fq = s.ctx.gen("x") * s
        Lq = curve_log_oracle(EQ, work)
    else:
        fq, tau, Lq = conic_isogeny_oracle(F.origin.b, F.origin.c, work)
    lam = Lq.compose({Lq.ctx.vars[0]: reverse_oracle(fq)})
    lam = lam.scale(lam.ctx.ring.from_int(2))
    return law_from_log_oracle(lam, out_prec), fq.truncate(out_prec), tau


def conic_isogeny_oracle(b: Fraction, c: Fraction, N: int):
    """(f, tau, log) of the conic law (x + y + b xy)/(1 - c xy) over Q from
    its closed form, b != 0: tau = -2/b is the root of
    [2](x) = x (2 + b x)/(1 - c x^2), f(x) = x * (x +_F tau), and the log is
    the integral of dx/(1 + b x + c x^2).  Exact below x^N, and x^(N + 1)
    for the log."""
    tau = Fraction(-2) / b
    ctx = SeriesCtx(QQ, ("x",), N)
    x = ctx.gen("x")
    num = x.scale(1 + b * tau) + ctx.const(tau)
    den = ctx.one() - x.scale(c * tau)
    f = x * (num * den.inverse())
    lp = (ctx.one() + x.scale(b) + (x * x).scale(c)).inverse()
    return f, tau, lp.truncate(N).integrate()


def law_from_log_oracle(lam: Series, P: int) -> Series:
    """exp(lam(x) + lam(y)) below total degree P as the exponential, the
    reverse of lam, composed with the bivariate sum lam(x) + lam(y)."""
    exp_bar = reverse_oracle(lam)
    ctx2 = SeriesCtx(lam.ctx.ring, ("x", "y"), P)
    var = lam.ctx.vars[0]
    lam_out = lam.truncate(P)
    S = lam_out.compose({var: ctx2.gen("x")}) + lam_out.compose({var: ctx2.gen("y")})
    return exp_bar.truncate(P).compose({var: S})


def find_iso_oracle(F: FormalGroupLaw, G: FormalGroupLaw, mode: str = "strict",
                    N: int | None = None, unit_candidates=None):
    """find_iso with every degree step composing phi(F) and G(phi x, phi y)
    at precision N + 1, and taking the first common solution of the rows
    comb(d, a) c = t_a (_common_solution).  The Obstruction is a proof
    unless a degree solved before a failure had another common solution
    (_rows_have_kernel)."""
    R = F.ring
    if N is None:
        N = min(F.prec, G.prec) - 1
    if mode == "strict":
        candidates = [R.one()]
    else:
        candidates = unit_candidates if unit_candidates is not None else R.unit_candidates(2)
    fails = {}
    proof = True
    ctx1 = SeriesCtx(R, ("t",), N + 1)
    for c1 in candidates:
        phi_terms = {(1,): c1}
        ok = True
        chosen = False
        for d in range(2, N + 1):
            phi = Series(ctx1, dict(phi_terms))
            phiu = phi.compose({"t": F.ctx.gen("x")})
            phiv = phi.compose({"t": F.ctx.gen("y")})
            resid = G.F.compose({"x": phiu, "y": phiv}) - phi.compose({"t": F.F})
            cd = _common_solution(R, [(comb(d, a), resid.coefficient((a, d - a)))
                                      for a in range(1, d)])
            pure_bad = any(not R.is_zero(resid.coefficient(e)) for e in [(d, 0), (0, d)])
            if cd is None or pure_bad:
                fails[R.render(c1)] = d
                proof = proof and not chosen
                ok = False
                break
            chosen = chosen or _rows_have_kernel(R, [comb(d, a) for a in range(1, d)])
            if not R.is_zero(cd):
                phi_terms[(d,)] = cd
        if ok:
            return IsoResult(Series(ctx1, dict(phi_terms)), c1)
    return Obstruction(max(fails.values()) if fails else 2, fails, proof)


def _rows_have_kernel(R: Ring, ns: list) -> bool:
    """Whether some nonzero c has n c = 0 for every n in ns, so that rows
    n c = t with a solution have another: coefficientwise over R[[b]] and
    base[w]/(f), from the complete solve_int lists of the base otherwise."""
    if isinstance(R, (SeriesRing, QuotientExtension)):
        return _rows_have_kernel(R.base, ns)
    common = None
    for n in ns:
        sols = R.solve_int(n, R.zero())
        common = sols if common is None else [s for s in common if any(R.eq(s, c) for c in sols)]
    return any(not R.is_zero(s) for s in common)


def _common_solution(R: Ring, rows: list):
    """The first c with n c = t for every (n, t) in rows, or None.  An integer
    acts on R[[b]] coefficient by coefficient and on base[w]/(f) coordinate
    by coordinate, so there the rows are intersected per coefficient (an
    absent one solves n c = 0 by c = 0); otherwise the rows' solve_int lists,
    complete and ascending over Z, Q, Z_(p) and Z/m, are intersected in
    order."""
    if isinstance(R, SeriesRing):
        out = {}
        for e in set().union(*(t.terms for _, t in rows)):
            c = _common_solution(R.base, [(n, t.terms.get(e, R.base.zero())) for n, t in rows])
            if c is None:
                return None
            if not R.base.is_zero(c):
                out[e] = c
        return Series(R.ctx, out)
    if isinstance(R, QuotientExtension):
        out = []
        for k in range(R.deg):
            c = _common_solution(R.base, [(n, t[k]) for n, t in rows])
            if c is None:
                return None
            out.append(c)
        return tuple(out)
    sols = None
    for n, t in rows:
        cand = R.solve_int(n, t)
        sols = cand if sols is None else [s for s in sols if any(R.eq(s, c) for c in cand)]
        if not sols:
            return None
    return sols[0]


def noniso_degrees_oracle(Fc: FormalGroupLaw, cands: list) -> dict:
    """{(u, c): the degree where phi: Fc -> x + y + uxy with phi'(0) = c
    fails}, from one linear-unit find_iso per u over cands, the 14 x 14 loop
    fgl.noniso-z13 ran before it searched the rescaled orbit."""
    R = Fc.ring
    out = {}
    for u in cands:
        r = find_iso(Fc, conic_fgl(R, u, R.zero(), Fc.prec - 1), "linear-unit",
                     N=6, unit_candidates=cands)
        assert isinstance(r, Obstruction)
        for c in cands:
            out[(u, c)] = r.details[R.render(c)]
    return out


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


def psi_defect_oracle(f: QSeries) -> QSeries:
    """f(q^2) - f(q), with f(q^2) taken at the precision of f."""
    return QSeries({2 * n: c for n, c in f.coeffs.items()}, f.prec) - f


def eisenstein_j_oracle(nterms: int):
    """(E4, E6, Delta, j, j^-1) on the dict q-series: the divisor sums by
    trial division, Delta = (E4^3 - E6^2)/1728 and both quotients by the
    degree-by-degree inverse.  j = q^-1 + ... is known below q^(nterms - 2),
    the others below q^nterms."""
    def sigma(k, n):
        return sum(d ** k for d in range(1, n + 1) if n % d == 0)

    e4 = QSeries({0: 1, **{n: 240 * sigma(3, n) for n in range(1, nterms)}}, nterms)
    e6 = QSeries({0: 1, **{n: -504 * sigma(5, n) for n in range(1, nterms)}}, nterms)
    e4_cubed = e4 ** 3
    delta = (e4_cubed - e6 ** 2).divide_exact(1728)
    return e4, e6, delta, e4_cubed * delta.inverse_unit(), delta * e4_cubed.inverse_unit()


# -- Steenrod algebra ---------------------------------------------------------

def _strip_oracle(r) -> tuple:
    r = list(r)
    while r and r[-1] == 0:
        r.pop()
    return tuple(r)


def _carry_free_oracle(parts: list[int], total: int) -> bool:
    return sum(bin(p).count("1") for p in parts) == bin(total).count("1")


def milnor_product_mono_oracle(r: tuple, s: tuple) -> frozenset:
    """Milnor product of two monomials by nested row/column recursion that
    copies its budget dicts at every cell; no cache."""
    k, l = len(r), len(s)
    if k == 0:
        return frozenset({s})
    if l == 0:
        return frozenset({r})
    results = set()

    # inner entries x[i][j], 1<=i<=k, 1<=j<=l; then
    # x[i][0] = r_i - sum_j 2^j x[i][j] >= 0,  x[0][j] = s_j - sum_i x[i][j] >= 0
    def rec(i, row_budget, cols_used, inner):
        if i > k:
            colsums = [s[j - 1] - cols_used[j] for j in range(1, l + 1)]
            if any(c < 0 for c in colsums):
                return
            X = {}
            for (a, b), v in inner.items():
                X[(a, b)] = v
            for a in range(1, k + 1):
                X[(a, 0)] = row_budget[a]
            for b in range(1, l + 1):
                X[(0, b)] = colsums[b - 1]
            nmax = k + l
            t = []
            good = True
            for n in range(1, nmax + 1):
                parts = [X.get((a, n - a), 0) for a in range(max(0, n - l), min(k, n) + 1)]
                tot = sum(parts)
                if not _carry_free_oracle([p for p in parts if p], tot):
                    good = False
                    break
                t.append(tot)
            if good:
                results.symmetric_difference_update({_strip_oracle(t)})
            return

        def rec_cols(j, rem, cu, inner2):
            if j > l:
                nb = dict(row_budget)
                nb[i] = rem
                rec(i + 1, nb, cu, inner2)
                return
            maxv = rem // (2 ** j)
            for v in range(maxv + 1):
                cu2 = dict(cu)
                cu2[j] = cu.get(j, 0) + v
                if cu2[j] > s[j - 1]:
                    break
                inner3 = dict(inner2)
                if v:
                    inner3[(i, j)] = v
                rec_cols(j + 1, rem - v * (2 ** j), cu2, inner3)

        rec_cols(1, r[i - 1], cols_used, inner)

    rec(1, {a: r[a - 1] for a in range(1, k + 1)}, {j: 0 for j in range(1, l + 1)}, {})
    return frozenset(results)


def quotient_ideal_oracle(profile: st.Profile, N: int) -> dict:
    """The left ideal A.B+ spanned degree by degree from every product a.b,
    a in basis(d - |b|), b in B+: degree -> (reduced rows, pivots, reps)."""
    bplus = [b for b in profile.algebra_basis() if b != ()]
    out = {}
    for d in range(N + 1):
        mons = st.basis(d)
        index = {m: i for i, m in enumerate(mons)}
        rows = []
        for b in bplus:
            e = st.mono_degree(b)
            if e > d:
                continue
            for a in st.basis(d - e):
                vec = 0
                for m in st.milnor_product_mono(a, b):
                    vec |= 1 << index[m]
                if vec:
                    rows.append(vec)
        bas, piv = f2_rref(rows)
        pivset = set(piv)
        out[d] = (bas, piv, [i for i in range(len(mons)) if i not in pivset])
    return out


def profile_closure_oracle(profile: st.Profile) -> bool:
    """The span of `profile.algebra_basis()` is closed under the product:
    every monomial of every product of two basis members is a member."""
    bs = profile.algebra_basis()
    members = set(bs)
    return all(m in members for a in bs for b in bs for m in st.milnor_product_mono(a, b))


def cyclic_check_oracle(qm: st.QuotientModule) -> bool:
    """Breadth-first search from the unit over actual elements: each image
    under a Sq(2^i) is kept when it leaves the span reached so far."""
    gens = []
    i = 0
    while 2 ** i <= qm.N:
        gens.append(st.sq(2 ** i))
        i += 1
    reached = {0: 1}  # degree -> bitmask of reached rep span
    frontier = [(0, st.UNIT)]
    elements = {0: [st.UNIT]}
    while frontier:
        d, elem = frontier.pop()
        for g in gens:
            e = st.element_degree(g)
            nd = d + e
            if nd > qm.N:
                continue
            img = st.milnor_product(g, elem)
            coords = qm.coset_coords(nd, img)
            cur = reached.get(nd, 0)
            # add to span via simple accumulation and rref later
            elements.setdefault(nd, [])
            elements[nd].append(img)
            if coords and f2_reduce(*f2_rref(
                    [qm.coset_coords(nd, x) for x in elements[nd][:-1]]), coords):
                frontier.append((nd, img))
            reached[nd] = cur | coords
    for d in range(qm.N + 1):
        want = qm.dim(d)
        got = len(f2_rref([qm.coset_coords(d, x)
                           for x in elements.get(d, [])])[0])
        if got != want:
            return False
    return True


def poincare_product_dims_oracle(N: int) -> list[int]:
    """prod_{i>=1} 1/(1 - q^(2^i - 1)), one convolution loop per factor."""
    out = [1] + [0] * N
    i = 1
    while 2 ** i - 1 <= N:
        w = 2 ** i - 1
        for d in range(w, N + 1):
            out[d] += out[d - w]
        i += 1
    return out


def bstar_dims_oracle(n: int, p: int, N: int) -> list[int]:
    """dims of B_*: at p = 2 the polynomial algebra on squares of the first
    n+1 dual generators and the rest unsquared; at odd p the polynomial duals
    (degrees 2(p^i - 1)) tensored with the exterior part from index n+1 on."""
    out = [1] + [0] * N
    if p == 2:
        gens = []
        i = 1
        while True:
            d = 2 * (2 ** i - 1) if i <= n + 1 else 2 ** i - 1
            if d > N:
                if i > n + 1:
                    break
                i += 1
                continue
            gens.append(d)
            i += 1
        for w in gens:
            for d in range(w, N + 1):
                out[d] += out[d - w]
        return out
    # odd p: polynomial on 2(p^i - 1), exterior on 2 p^j - 1 for j >= n+1
    i = 1
    while 2 * (p ** i - 1) <= N:
        w = 2 * (p ** i - 1)
        if w:
            for d in range(w, N + 1):
                out[d] += out[d - w]
        i += 1
    j = n + 1
    while 2 * p ** j - 1 <= N:
        w = 2 * p ** j - 1
        for d in range(N, w - 1, -1):
            out[d] += out[d - w]
        j += 1
    return out


def dual_steenrod_dims_odd_oracle(p: int, N: int, tau_from: int = 0) -> list[int]:
    """dims of P(xi_1, ...) tensor E(tau_j : j >= tau_from) at an odd prime."""
    out = [1] + [0] * N
    i = 1
    while 2 * (p ** i - 1) <= N:
        w = 2 * (p ** i - 1)
        for d in range(w, N + 1):
            out[d] += out[d - w]
        i += 1
    j = tau_from
    while 2 * p ** j - 1 <= N:
        w = 2 * p ** j - 1
        for d in range(N, w - 1, -1):
            out[d] += out[d - w]
        j += 1
    return out


def solve_many_oracle(R, columns: list[list], targets: list[list]):
    """Gauss-Jordan over the field R on [columns | targets], pivots in the
    coefficient block, each row op rebuilding the whole row."""
    n = len(columns)
    m = len(columns[0]) if columns else (len(targets[0]) if targets else 0)
    k = len(targets)
    rows = [[columns[j][i] for j in range(n)] + [t[i] for t in targets]
            for i in range(m)]
    pivots = []
    rank = 0
    for col in range(n):
        piv = None
        for i in range(rank, len(rows)):
            if not R.is_zero(rows[i][col]):
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = R.inv(rows[rank][col])
        rows[rank] = [R.mul(inv, x) for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and not R.is_zero(rows[i][col]):
                f = rows[i][col]
                rows[i] = [R.sub(x, R.mul(f, y)) for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    outs = []
    for ti in range(k):
        if any(not R.is_zero(rows[i][n + ti]) for i in range(rank, len(rows))):
            outs.append(None)
            continue
        x = [R.zero()] * n
        for r, p in zip(rows[:rank], pivots):
            x[p] = r[n + ti]
        outs.append(x)
    return outs


def hnf_rows_oracle(mat: list[list[int]]) -> list[list[int]]:
    """Row echelon form by integer row operations, whole rows rebuilt."""
    m = [list(r) for r in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i][c] != 0 and (piv is None or abs(m[i][c]) < abs(m[piv][c])):
                piv = i
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        changed = True
        while changed:
            changed = False
            for i in range(r + 1, rows):
                if m[i][c] != 0:
                    q = m[i][c] // m[r][c]
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                    if m[i][c] != 0:
                        if abs(m[i][c]) < abs(m[r][c]):
                            m[r], m[i] = m[i], m[r]
                        changed = True
        if m[r][c] < 0:
            m[r] = [-a for a in m[r]]
        r += 1
        if r == rows:
            break
    return m


def smith_normal_form_oracle(mat: list[list[int]]) -> list[int]:
    """Smith diagonal with a full row-major scan for the smallest pivot."""
    m = [list(r) for r in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    diag = []
    top = 0
    left = 0
    while top < rows and left < cols:
        piv = None
        best = None
        for i in range(top, rows):
            for j in range(left, cols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < best):
                    best = abs(m[i][j])
                    piv = (i, j)
        if piv is None:
            break
        pi, pj = piv
        m[top], m[pi] = m[pi], m[top]
        for i in range(rows):
            m[i][left], m[i][pj] = m[i][pj], m[i][left]
        dirty = True
        while dirty:
            dirty = False
            for i in range(top + 1, rows):
                if m[i][left] != 0:
                    q = m[i][left] // m[top][left]
                    m[i] = [a - q * b for a, b in zip(m[i], m[top])]
                    if m[i][left] != 0:
                        m[top], m[i] = m[i], m[top]
                        dirty = True
            for j in range(left + 1, cols):
                if m[top][j] != 0:
                    q = m[top][j] // m[top][left]
                    for i in range(rows):
                        m[i][j] -= q * m[i][left]
                    if m[top][j] != 0:
                        for i in range(rows):
                            m[i][left], m[i][j] = m[i][j], m[i][left]
                        dirty = True
        diag.append(abs(m[top][left]))
        top += 1
        left += 1
    return [d for d in diag if d != 0]


def _int_coeff_oracle(c) -> int:
    if isinstance(c, Fraction):
        if c.denominator != 1:
            raise ValueError(f"{c} not an integer")
    return int(c)


def _is_int_scalar_oracle(s) -> bool:
    return all(all(x == 0 for x in e) for e in s.terms)


def _scalar_value_oracle(s) -> int:
    return _int_coeff_oracle(next(iter(s.terms.values()))) if s.terms else 0


def regular_sequence_check_oracle(seq, module, N: int) -> list:
    """Failures (step, degree, witness) of the regularity test over a base of
    characteristic 0: the Smith form for a scalar, bitmask ranks mod 2 after
    the scalar 2, integer lattices otherwise; each path builds its own
    multiplication matrices."""
    pring = module.pring
    failures = []
    for step, elt in enumerate(seq):
        prefix = [e.poly for e in seq[:step]] + list(module.relations)
        s = elt.poly
        if _is_int_scalar_oracle(s):
            bad = _scalar_kernel_oracle(pring, prefix, _scalar_value_oracle(s), N)
        elif any(_is_int_scalar_oracle(e.poly) for e in seq[:step]):
            bad = _kernel_mod_2_oracle(pring, prefix, seq[:step], s, N)
        else:
            bad = _kernel_lattice_oracle(pring, prefix, s, N)
        if bad is not None:
            failures.append((step, bad[0], bad[1]))
    return failures


def _span_columns_oracle(pring, gens, d):
    dst = monomials_of_weighted_degree(pring.weights, d)
    dst_at = {m: i for i, m in enumerate(dst)}
    cols = []
    for g in gens:
        e = g.wdegree()
        if e is None or e > d:
            continue
        for m in monomials_of_weighted_degree(pring.weights, d - e):
            vec = [0] * len(dst)
            for ge, gc in g.terms.items():
                vec[dst_at[tuple(a + b for a, b in zip(m, ge))]] += _int_coeff_oracle(gc)
            if any(vec):
                cols.append(vec)
    return cols, dst


def _scalar_kernel_oracle(pring, prefix, n, N):
    for d in range(N + 1):
        cols, dst = _span_columns_oracle(pring, prefix, d)
        if not dst:
            continue
        diag = smith_normal_form([list(r) for r in zip(*cols)]) if cols else []
        for t in diag:
            if t != 0 and gcd(abs(t), abs(n)) > 1:
                return (d, f"torsion class of order {t} at degree {d}")
    return None


def _kernel_mod_2_oracle(pring, prefix, prior, s, N):
    p = 2
    for e in prior:
        if _is_int_scalar_oracle(e.poly):
            p = abs(_scalar_value_oracle(e.poly))
    if p != 2:
        raise ValueError(f"regularity after the scalar {p}")
    e = s.wdegree() or 0

    def span_rows(d, index):
        rows = []
        for g in prefix:
            eg = g.wdegree()
            if eg is None or _is_int_scalar_oracle(g) or eg > d:
                continue
            for m in monomials_of_weighted_degree(pring.weights, d - eg):
                vec = 0
                for ge, gc in g.terms.items():
                    if _int_coeff_oracle(gc) % p:
                        vec ^= 1 << index[tuple(a + b for a, b in zip(m, ge))]
                if vec:
                    rows.append(vec)
        return rows

    for d in range(N + 1):
        src = monomials_of_weighted_degree(pring.weights, d)
        dst = monomials_of_weighted_degree(pring.weights, d + e)
        dst_at = {m: i for i, m in enumerate(dst)}
        src_at = {m: i for i, m in enumerate(src)}
        bas_de, piv_de = f2_rref(span_rows(d + e, dst_at))
        bas_d, piv_d = f2_rref(span_rows(d, src_at))
        cols = []
        for m in src:
            vec = 0
            for se, sc in s.terms.items():
                if _int_coeff_oracle(sc) % p:
                    vec ^= 1 << dst_at[tuple(a + b for a, b in zip(m, se))]
            cols.append(f2_reduce(bas_de, piv_de, vec))
        for vec in f2_nullspace(cols):
            if f2_reduce(bas_d, piv_d, vec):
                return (d, f"class of {src[(vec & -vec).bit_length() - 1]} at degree {d}")
    return None


def _kernel_lattice_oracle(pring, prefix, s, N):
    e = s.wdegree() or 0
    for d in range(N + 1):
        src = monomials_of_weighted_degree(pring.weights, d)
        if not src:
            continue
        dst = monomials_of_weighted_degree(pring.weights, d + e)
        dst_at = {m: i for i, m in enumerate(dst)}
        cols = []
        for m in src:
            vec = [0] * len(dst)
            for se, sc in s.terms.items():
                vec[dst_at[tuple(a + b for a, b in zip(m, se))]] += _int_coeff_oracle(sc)
            cols.append(vec)
        span_cols, _ = _span_columns_oracle(pring, prefix, d + e)
        combined = cols + [[-x for x in col] for col in span_cols]
        ker = int_kernel(combined, len(combined))
        span_d_cols, _ = _span_columns_oracle(pring, prefix, d)
        for vec in ker:
            x = vec[:len(cols)]
            if any(x) and solve_int_exact(span_d_cols, x) is None:
                return (d, f"class of {src[next(i for i, v in enumerate(x) if v)]} at degree {d}")
    return None


def weierstrass_prepare_oracle(f: Series):
    """(unit, distinguished coefficients low-first, d) with f = unit *
    distinguished: division of x^d by f iterated to a fixed point, and the
    unit inverted at f's precision."""
    f._univar()
    R = f.ctx.ring
    prec = f.ctx.prec
    d = next((k for k in range(prec) if R.is_unit(f.ucoeff(k))), None)
    if d is None:
        raise PreparationFailed("no unit coefficient below truncation order")
    ctx = f.ctx
    A = Series(ctx, {e: c for e, c in f.terms.items() if e[0] < d})
    B = Series(ctx, {(e[0] - d,): c for e, c in f.terms.items() if e[0] >= d})
    Binv = B.inverse()

    def tau(h: Series) -> Series:
        return Series(ctx, {(e[0] - d,): c for e, c in h.terms.items() if e[0] >= d})

    g = Series(ctx, {(d,): R.one()})
    bound = R.nilpotent_bound()
    q = ctx.zero()
    for _ in range((bound + 2) if bound is not None else prec + 4):
        q_next = Binv * tau(g - q * A)
        if q_next == q:
            break
        q = q_next
    else:
        raise PreparationFailed("preparation iteration did not stabilize")
    r = g - q * f
    if any(e[0] >= d for e in r.terms):
        raise PreparationFailed("division remainder not reduced")
    return q.inverse(), [R.neg(r.ucoeff(k)) for k in range(d)] + [R.one()], d


def family_param_derivative_oracle(R2: SeriesRing, at_param: Series, xprec: int) -> Series:
    """dF_s/ds at s = at_param, below total degree xprec: the family law over
    F_2[s], differentiated in s coefficient by coefficient and each
    polynomial evaluated at at_param term by term."""
    P = PolyRing(PrimeField(2), ("s",))
    Fs = family_law(P, P.one(), P.gen("s"), xprec - 1)
    out = {}
    for e, poly in Fs.terms.items():
        val = R2.zero()
        for (n,), c in poly.terms.items():
            dc = P.base.scale_int(c, n)
            if P.base.is_zero(dc):
                continue
            term = R2.const(dc)
            for _ in range(n - 1):
                term = R2.mul(term, at_param)
            val = R2.add(val, term)
        if not R2.is_zero(val):
            out[e] = val
    return Series(SeriesCtx(R2, ("x", "y"), xprec), out)


def recognition_columns_oracle(bprec: int, xprec: int):
    """(row_at, cols) of recognize_in_family over F_2[[b]]/(b^bprec) below
    total degree xprec, as it built them before reading the columns at
    b-offsets: each c_d and Gs scaled by every power b^m, then read bit by
    bit."""
    R2 = SeriesRing(PrimeField(2), "b", bprec)
    b2sq = R2.mul(R2.gen(), R2.gen())
    F0 = family_fgl_at(R2, b2sq, xprec - 1).F
    row_at = {r: n for n, r in enumerate(
        (i, j, m) for i in range(xprec) for j in range(xprec - i) for m in range(bprec))}

    def bits(s: Series, level: int = 0) -> int:
        """Bit `level` of each b^m x^i y^j coefficient of s, which must
        vanish below that bit."""
        out = 0
        for (i, j), c in s.terms.items():
            for (m,), val in c.terms.items():
                if val % 2 ** level:
                    raise RecognitionFailed(f"residual not divisible by 2^{level}")
                if (val >> level) & 1:
                    out |= 1 << row_at[(i, j, m)]
        return out

    # columns: phi's t^d b^m for d = 1.. (d outer), then b'^m (d = 0)
    x, y = F0.ctx.gen("x"), F0.ctx.gen("y")
    G1, G2 = F0.derivative("x"), F0.derivative("y")
    bpow = [R2.one()]
    for _ in range(1, bprec):
        bpow.append(R2.mul(bpow[-1], R2.gen()))
    cols = []
    Fd, xd, yd = F0, x, y
    for d in range(1, xprec):
        if d > 1:
            Fd, xd, yd = Fd * F0, xd * x, yd * y
        cd = Fd - G1 * xd - G2 * yd
        cols.extend(bits(cd.scale(bm)) for bm in bpow)
    Gs = _family_b_direction(R2, b2sq, xprec)
    cols.extend(bits(Gs.scale(bm)) for bm in bpow)
    return row_at, cols


def recognize_in_family_oracle(Fq: FormalGroupLaw) -> Recognition:
    """recognize_in_family with its F_2[s] law for the b-direction, each
    column (d, m) built from F0^d b^m, x^d b^m and y^d b^m, and the final
    residual check after the level loop."""
    R = Fq.ring
    if not (isinstance(R, SeriesRing) and isinstance(R.base, ModularIntegers)):
        raise RecognitionFailed("expected a Z/2^k[[b]] coefficient ring")
    k = R.base.nilpotent_bound()
    if k is None or 2 ** k != R.base.m:
        raise RecognitionFailed("modulus must be a power of 2")
    bprec = R.prec
    xprec = Fq.prec
    R2 = SeriesRing(PrimeField(2), R.var, bprec)
    b2sq = R2.mul(R2.gen(), R2.gen())
    F0 = family_fgl_at(R2, b2sq, xprec - 1).F
    Fq2 = Fq.F.map_coefficients(lambda c: c.map_coefficients(lambda v: v % 2, R2.base), R2)
    if not Fq2 == F0:
        raise RecognitionFailed("mod-2 reduction is not the Frobenius twist of the family")
    rows = [(i, j, m) for i in range(xprec) for j in range(xprec - i) for m in range(bprec)]
    row_at = {r: n for n, r in enumerate(rows)}

    def biv_bits(s: Series) -> int:
        out = 0
        for (i, j), c in s.terms.items():
            for (m,), bit in c.terms.items():
                if bit % 2:
                    out |= 1 << row_at[(i, j, m)]
        return out

    x2, y2 = F0.ctx.gen("x"), F0.ctx.gen("y")
    G1 = F0.derivative("x")
    G2 = F0.derivative("y")
    Gs = family_param_derivative_oracle(R2, b2sq, xprec)
    Fpow = {1: F0}
    for d in range(2, xprec):
        Fpow[d] = Fpow[d - 1] * F0
    cols = []
    col_meta = []
    for d in range(1, xprec):
        for m in range(bprec):
            bm = R2.pow(R2.gen(), m)
            col = (Fpow[d].scale(bm) - G1 * (x2 ** d).scale(bm)
                   - G2 * (y2 ** d).scale(bm))
            cols.append(biv_bits(col))
            col_meta.append(("phi", d, m))
    for m in range(bprec):
        cols.append(biv_bits(Gs.scale(R2.pow(R2.gen(), m))))
        col_meta.append(("b", m))

    def residual(phi, bparam):
        G = family_fgl_at(R, bparam, xprec - 1).F
        u, v = Fq.ctx.gen("x"), Fq.ctx.gen("y")
        return (phi.compose({"t": Fq.F})
                - G.compose({"x": phi.compose({"t": u}), "y": phi.compose({"t": v})}))

    ctx1 = SeriesCtx(R, ("t",), xprec)
    phi = ctx1.gen("t")
    bparam = R.mul(R.gen(), R.gen())
    for level in range(1, k):
        resid = residual(phi, bparam)
        target = 0
        scale = 2 ** level
        for (i, j), c in resid.terms.items():
            for (m,), val in c.terms.items():
                if val % scale:
                    raise RecognitionFailed(f"residual not divisible by 2^{level}")
                if (val // scale) % 2:
                    target |= 1 << row_at[(i, j, m)]
        if target == 0:
            continue
        sol = f2_solve(cols, target)
        if sol is None:
            raise RecognitionFailed(f"no lift at 2-adic level {level}")
        for idx, meta in enumerate(col_meta):
            if not (sol >> idx) & 1:
                continue
            delta = Series(R.ctx, {(meta[-1],): R.base.from_int(scale)})
            if meta[0] == "phi":
                key = (meta[1],)
                phi = Series(ctx1, {**phi.terms, key: R.add(phi.terms.get(key, R.zero()), delta)})
            else:
                bparam = R.add(bparam, delta)
    if not residual(phi, bparam).is_zero():
        raise RecognitionFailed("recognition residual nonzero at full modulus")
    return Recognition(bparam, phi)


def quotient_mul_oracle(R: QuotientExtension, a, b):
    """QuotientExtension.mul by the coefficient loop on every base: base-ring
    sums and products, then reduction by the monic modulus from the top."""
    B = R.base
    out = [B.zero()] * (2 * R.deg - 1)
    for i, x in enumerate(a):
        if B.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = B.add(out[i + j], B.mul(x, y))
    d = R.deg
    for i in range(len(out) - 1, d - 1, -1):
        c = out[i]
        if B.is_zero(c):
            continue
        for j in range(d + 1):
            out[i - d + j] = B.sub(out[i - d + j], B.mul(c, R.modulus[j]))
    return tuple(out[:d])


def two_series_oracle(E, N: int) -> Series:
    """[2](x) below x^(N+1) as F(x, x) of the bivariate chord law
    formal_group_of_curve_oracle(E, N)."""
    F = formal_group_of_curve_oracle(E, N)
    x = SeriesCtx(E.ring, ("z",), N + 1).gen("z")
    return F.compose({v: x for v in F.ctx.vars})


def automorphism_group_oracle(E) -> list:
    """Every (u, r, s, t) over a finite ring, u a unit, whose transform of E
    is E, in the lexicographic order of R.elements(); closure verified."""
    R = E.ring
    elems = R.elements()
    units = [e for e in elems if R.is_unit(e)]
    out = []
    for u in units:
        for r in elems:
            for s in elems:
                for t in elems:
                    if curves_equal(transform(E, u, r, s, t), E):
                        out.append((u, r, s, t))
    keyed = {tuple(map(R.render, g)) for g in out}
    for g in out:
        for h in out:
            if tuple(map(R.render, compose_transforms(R, g, h))) not in keyed:
                raise AlgebraError("automorphism set is not closed under composition")
    return out


def _poly_gcd_oracle(a: list, b: list, R: Ring) -> list:
    """Monic gcd of coefficient lists (low first) over a field, by Euclid."""

    def norm(p):
        while p and R.is_zero(p[-1]):
            p.pop()
        return p

    a, b = norm(list(a)), norm(list(b))
    while b:
        inv_lead = R.inv(b[-1])
        while len(a) >= len(b) and a:
            f = R.mul(a[-1], inv_lead)
            shift = len(a) - len(b)
            for i, bc in enumerate(b):
                a[shift + i] = R.sub(a[shift + i], R.mul(f, bc))
            norm(a)
        a, b = b, a
    inv_lead = R.inv(a[-1])
    return [R.mul(c, inv_lead) for c in a]


def find_node_oracle(E):
    """The node of a nodal curve in characteristic 0: x0 = minus the constant
    term of gcd(B, B') for B = 4x^3 + b2 x^2 + 2 b4 x + b6 over the rational
    lift, y0 = -(a1 x0 + a3)/2, each descended to the curve's ring."""
    R = E.ring
    inv = invariants(E)
    Q, lift = R.rationalize()
    b2, b4, b6 = lift(inv.b2), lift(inv.b4), lift(inv.b6)
    B = [b6, Q.scale_int(b4, 2), b2, Q.from_int(4)]
    Bp = [B[1], Q.scale_int(B[2], 2), Q.scale_int(B[3], 3)]
    g = _poly_gcd_oracle(B, Bp, Q)
    if len(g) != 2:
        raise AlgebraError("no unique double root")
    x0 = Q.neg(g[0])
    y0 = Q.divide(Q.neg(Q.add(Q.mul(lift(E.a1), x0), lift(E.a3))), Q.from_int(2))
    return (descend_scalar(x0, R), descend_scalar(y0, R))


def three_torsion_oracle(E, P) -> bool:
    """[2]P = -P for an affine point P of E, with [2]P from the chord-tangent
    addition of P to itself and the point at infinity as None."""
    R = E.ring
    a1, a2, a3, a4, a6 = E.coefficients()
    x1, y1 = P
    neg_y = R.neg(R.add(y1, R.add(R.mul(a1, x1), a3)))
    if R.eq(y1, neg_y):
        return False                        # [2]P is the point at infinity
    num = R.add(R.scale_int(R.mul(x1, x1), 3),
                R.add(R.scale_int(R.mul(a2, x1), 2), R.sub(a4, R.mul(a1, y1))))
    den = R.add(R.scale_int(y1, 2), R.add(R.mul(a1, x1), a3))
    lam = R.divide(num, den)
    if lam is None:
        raise NotInvertible("chord slope needs a division unavailable in this ring")
    x3 = R.sub(R.add(R.mul(lam, lam), R.mul(a1, lam)), R.add(a2, R.add(x1, x1)))
    y3 = R.sub(R.mul(lam, R.sub(x1, x3)), R.add(y1, R.add(R.mul(a1, x3), a3)))
    return R.eq(x3, x1) and R.eq(y3, neg_y)


def reduce_poly_modulo_oracle(poly: Poly, p: int, kill_gens: tuple = ()) -> Poly:
    """The image mod (p, kill_gens) of a polynomial with integer
    coefficients, each coefficient taken as int(c) % p."""
    P = poly.pring
    idx = [P.gens.index(g) for g in kill_gens]
    out = {}
    for e, c in poly.terms.items():
        if any(e[i] for i in idx):
            continue
        if c != int(c):
            raise ValueError(f"{c} is not an integer")
        if int(c) % p:
            out[e] = int(c) % p
    return Poly(PolyRing(PrimeField(p), P.gens, P.weights), out)
