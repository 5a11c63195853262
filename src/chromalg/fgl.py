"""Formal group laws: construction and validation, m-series and heights,
logarithms, Hazewinkel generators, isomorphism search, canonical subgroups,
isogeny quotients and the 2-adic recognition of a quotient in the family.

Every law has one logarithm, read from the law itself: ell' = 1/(dF/dy)(x, 0)
over the rationalized coefficient ring (fgl_log).  On a curve law it is the
curve's logarithm (elliptic.curve_log) in the variable x.

Quotients follow a torsion-free route: the kernel point is located exactly on
a characteristic-zero lift (a curve whose chord law reduces to the law), the
quotient law is assembled through logarithms, and reducing it back into
Z/2^k or Z/2^k[[b]] is the 2-integrality refusal.  On the lifted curve the
isogeny and the log (elliptic.sum_with_point with the 2-torsion point,
elliptic.curve_log) read one w-series at the output precision.  All heavy
lifting is univariate: law_from_log reads exp(lam(x) + lam(y)) from the Lie
series of the invariant vector field 1/lam' d/dx, with no reversion of lam
and no bivariate composition.
Only the laws that quotient_by_subgroup accepts carry an origin, which names
their lifted curve: two_adic_family_fgl the b-precision of the family curve
y^2 + xy + by = x^3 over Q[[b]] (FamilyOrigin), and conic_fgl its rational
parameters (b, c) (ConicOrigin), for the nodal cubic
y^2 - b xy = x^3 - c x^2 over Q, whose chord law is the conic law
(Silverman, The Arithmetic of Elliptic Curves, IV.1).  One builder,
_curve_lift, runs the lift of either curve.  The family curve's lift is the same
rational object for every 2-adic modulus, so, like the universal law below,
it is built once per process: the memo keeps the lift of the largest
b-precision and x-precision asked for, and a smaller request truncates it,
exactly, since reduction mod b^m is a ring map and the 2-torsion point is a
Hensel root.  One residual, hom_residual = f(F(x, y)) - G(f x, f y),
re-verifies each quotient's isogeny, on every call, and drives each level
of recognize_in_family.  canonical_subgroup and the kernel check of
quotient_by_subgroup read one [2](x), kept on the law itself
(FormalGroupLaw.two_series), not in module state.

Curve laws come two ways.  fgl_from_curve runs the chord construction
(elliptic.formal_group_of_curve) for the curve it is given.  The level-3
family y^2 + A xy + B y = x^3 instead has one universal law over Z[A, B].
The chord runs once per process on the chart A = 1, B = b over
Z[[b]]/(b^m), m = (N - 1)//3 + 1, where series products pack, and is
memoised at the largest total degree asked for.  Each coefficient is
weight-homogeneous of weight d = i + j - 1 (|A| = 1, |B| = 3), so its
chart value sum n_k b^k fixes it.  Every family member is the image under
(A, B) -> (a, b), read from the chart integers as sum n_k a^(d - 3k) b^k
(family_law; Silverman, The Arithmetic of Elliptic Curves, IV.1-2).  The
universal law itself is that image at (a, b) = (A, B) over Z[A, B]
(universal_family_law), the rehomogenisation sum n_k A^(d - 3k) B^k, exact
since b-degrees stay <= d/3 < m.
two_adic_family_fgl and family_fgl_at are such images, and so is the
s-derivative that recognize_in_family needs: the law over the dual numbers
R[eps]/(eps^2) at B = s + eps carries dF_s/ds as its eps-coordinate.  The
checks on the universal law read the memo.  ell.formal-group-family
compares it with the chord over Z[A, B] at its own degree, where
homogeneity is not true by construction.  The checks whose claim is about
particular fibers keep the curve as their independent side:
ell.reduction-table (each fiber's own 2-series, elliptic.two_series) and
ell.tate-fgl (the chord against the closed form x + y - xy).

Every constructor returns its law through make_fgl, which checks unit and
commutativity.  The laws built are associative by construction (Hazewinkel,
Formal Groups and Applications, section 1), so only the checks that claim
it have validate_fgl compare F(F(x, y), z) with its cyclic permutation:
ell.formal-group-family, fgl.conic-expansion and fgl.validation-random.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd

from .convert import reduce_scalar, series_reduce
from .elliptic import (WeierstrassCurve, curve_log, curve_w_series,
                       formal_group_of_curve, gamma1_3_curve, sum_with_point,
                       universal_gamma1_3)
from .errors import (AlgebraError, HeightExceedsPrecision, IntegralityFailure,
                     InvalidKernel, NeedsTorsionFree, NotInvertible, NotOrdinary,
                     PreparationFailed, QuotientPrecisionError, RecognitionFailed,
                     NotAFrobeniusLift, TruncationError)
from .linalg import f2_solve
from .rings import (ModularIntegers, PrimeField, QQ, QuotientExtension, Ring, ZZ, Z_local,
                    _valuation)
from .series import Series, SeriesCtx, SeriesRing, weierstrass_prepare


# -- the law object ------------------------------------------------------------

@dataclass
class FamilyOrigin:
    bprec: int          # the lift is y^2 + xy + by = x^3 over Q[[b]]/(b^bprec)


@dataclass
class ConicOrigin:
    b: Fraction
    c: Fraction


@dataclass
class FormalGroupLaw:
    F: Series                 # bivariate in ("x", "y"), total degree < prec
    origin: object = None     # the lift quotient_by_subgroup reads, if any
    # (F, [2](x)) once two_series has made it
    _two: tuple = field(default=None, init=False, repr=False, compare=False)

    def two_series(self) -> Series:
        """[2](x), made once per law and shared by canonical_subgroup and the
        kernel check of quotient_by_subgroup.  It is kept beside the F it was
        made from, so a law whose F is replaced makes it again."""
        if self._two is None or self._two[0] is not self.F:
            self._two = (self.F, m_series(self, 2))
        return self._two[1]

    @property
    def ctx(self):
        return self.F.ctx

    @property
    def ring(self) -> Ring:
        return self.F.ctx.ring

    @property
    def prec(self) -> int:
        return self.F.ctx.prec

    def coefficient(self, i, j):
        return self.F.coefficient((i, j))


def validate_fgl(F: Series, check_assoc: bool = True):
    """The unit and commutativity axioms of F over its own coefficient ring,
    and associativity when check_assoc is set; AlgebraError names the first
    that fails."""
    ctx = F.ctx
    ring = ctx.ring
    x = ctx.gen("x")
    restr = F.set_var_zero("y").drop_var("y").rename(("x",))
    if not restr == SeriesCtx(ring, ("x",), ctx.prec).gen("x"):
        raise AlgebraError("unit axiom F(x,0) = x fails")
    swapped = Series(ctx, {(j, i): c for (i, j), c in F.terms.items()})
    if not swapped == F:
        raise AlgebraError("commutativity fails")
    if check_assoc:
        # with F commutative, F(x, F(y, z)) = F(F(y, z), x): associativity is
        # L(x, y, z) = L(y, z, x) for L = F(F(x, y), z), and the term
        # x^i y^j z^k of L(y, z, x) is L's (i, j, k) term at (k, i, j)
        ctx3 = SeriesCtx(ring, ("x", "y", "z"), ctx.prec)
        X, Y, Z = (ctx3.gen(v) for v in ("x", "y", "z"))
        left = F.compose({"x": F.compose({"x": X, "y": Y}), "y": Z})
        cycled = Series(ctx3, {(k, i, j): c for (i, j, k), c in left.terms.items()})
        if not left == cycled:
            raise AlgebraError("associativity fails")


def make_fgl(F: Series, origin=None) -> FormalGroupLaw:
    """F as a law over its own coefficient ring, after the unit and
    commutativity checks; associativity is left to the checks that claim it."""
    if F.ctx.vars != ("x", "y"):
        F = F.rename(("x", "y"))
    validate_fgl(F, check_assoc=False)
    return FormalGroupLaw(F, origin)


# -- constructors ---------------------------------------------------------------

def conic_fgl(ring: Ring, b, c, N: int) -> FormalGroupLaw:
    """(x + y + b xy)/(1 - c xy) to total degree N, with no denominator when
    c = 0.  Discriminant b^2 - 4c."""
    b = ring.from_int(b) if isinstance(b, int) else b
    c = ring.from_int(c) if isinstance(c, int) else c
    ctx = SeriesCtx(ring, ("x", "y"), N + 1)
    x, y = ctx.gen("x"), ctx.gen("y")
    xy = x * y
    F = x + y + xy.scale(b)
    if not ring.is_zero(c):
        F = F * (ctx.one() - xy.scale(c)).inverse()
    origin = ConicOrigin(_to_fraction(ring, b), _to_fraction(ring, c))
    return make_fgl(F, origin)


def conic_discriminant(ring: Ring, b, c):
    return ring.sub(ring.mul(b, b), ring.scale_int(c, 4))


def multiplicative_fgl(ring: Ring, u, N: int) -> FormalGroupLaw:
    """x + y + u xy."""
    return conic_fgl(ring, u, ring.zero(), N)


def additive_fgl(ring: Ring, N: int) -> FormalGroupLaw:
    return conic_fgl(ring, ring.zero(), ring.zero(), N)


def _to_fraction(ring, v):
    """Rational-lift a conic parameter when representable; None otherwise."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    try:
        _, f = ring.rationalize()
    except NeedsTorsionFree:
        return None
    out = f(v)
    return out if isinstance(out, Fraction) else None


def fgl_from_curve(E: WeierstrassCurve, N: int) -> FormalGroupLaw:
    """The chord law of E to total degree N (elliptic.formal_group_of_curve)."""
    return make_fgl(formal_group_of_curve(E, N))


_universal_law = None     # the chart law over Z[[b]] of the largest N built so far


def _chart_law(N: int) -> dict:
    """The terms of total degree <= N of the level-3 family law on the chart
    A = 1, B = b, over Z[[b]]/(b^m), m = (N - 1)//3 + 1.  Built once per
    process by the chord: the memo keeps the largest law built so far, a
    smaller N truncates it and a larger N replaces it.  Each call returns a
    fresh dict."""
    global _universal_law
    if _universal_law is None or _universal_law.prec <= N:
        S = SeriesRing(ZZ, "b", max(N - 1, 0) // 3 + 1)
        E = gamma1_3_curve(S, S.one(), S.gen())
        _universal_law = formal_group_of_curve(E, N).rename(("x", "y"))
    return {e: s for e, s in _universal_law.terms.items() if sum(e) <= N}


def _weighted_terms(e: tuple, s: Series) -> list:
    """The chart coefficient s = sum n_k b^k at x^i y^j, e = (i, j), as the
    pairs ((d - 3k, k), n_k) with d = i + j - 1: the exponents of A and B
    in its weight-d lift to Z[A, B]."""
    d = sum(e) - 1
    out = []
    for (k,), n in s.terms.items():
        if 3 * k > d:
            raise AlgebraError(f"chart coefficient at {e} has b^{k} above weight {d}")
        out.append(((d - 3 * k, k), n))
    return out


def universal_family_law(N: int) -> Series:
    """The law of y^2 + A xy + B y = x^3 over Z[A, B] (|A| = 1, |B| = 3) to
    total degree N, in ("x", "y"): family_law at (A, B), which rehomogenises
    each chart coefficient sum n_k b^k as sum n_k A^(d - 3k) B^k,
    d = i + j - 1 at x^i y^j.

    Exact: the coefficient at x^i y^j is weight-homogeneous of weight d
    (Silverman, The Arithmetic of Elliptic Curves, IV.1; Mahowald and Rezk,
    Pure Appl. Math. Q. 5, 2009), and the chord commutes with ring maps.
    (A, B) -> (1, b) sends sum n_k A^(d - 3k) B^k to sum n_k b^k, so it is
    injective on weight d, and that image has b-degree <= d/3 <= (N - 1)/3
    < m, which Z[b] -> Z[[b]]/(b^m) keeps."""
    _, P = universal_gamma1_3()
    return family_law(P, P.gen("A"), P.gen("B"), N)


def universal_family_fgl(N: int) -> FormalGroupLaw:
    """universal_family_law(N) as a law."""
    return make_fgl(universal_family_law(N))


def family_law(ring: Ring, a, b, N: int) -> Series:
    """The law of y^2 + a xy + b y = x^3 over `ring` to total degree N, as the
    image of universal_family_law(N) under (A, B) -> (a, b), read from the
    chart: the coefficient sum n_k b^k at x^i y^j becomes
    sum n_k a^(i + j - 1 - 3k) b^k (Silverman, The Arithmetic of Elliptic
    Curves, IV.1-2).  The powers of a and b, and each monomial a^i b^j, are
    made once."""
    apow, bpow, mono = [ring.one()], [ring.one()], {}

    def monomial(i, j):
        if (i, j) not in mono:
            while len(apow) <= i:
                apow.append(ring.mul(apow[-1], a))
            while len(bpow) <= j:
                bpow.append(ring.mul(bpow[-1], b))
            mono[(i, j)] = (apow[i] if j == 0 else bpow[j] if i == 0
                            else ring.mul(apow[i], bpow[j]))
        return mono[(i, j)]

    out = {}
    for e, s in _chart_law(N).items():
        c = ring.zero()
        for (i, j), k in _weighted_terms(e, s):
            c = ring.add(c, ring.scale_int(monomial(i, j), k))
        if not ring.is_zero(c):
            out[e] = c
    return Series(SeriesCtx(ring, ("x", "y"), N + 1), out)


def two_adic_family_fgl(k: int, bprec: int, xprec: int) -> FormalGroupLaw:
    """The ordinary-locus family law (A = 1, B = b) over Z/2^k[[b]], carrying
    the b-precision of its exact Q[[b]] lift for quotient work."""
    ring_k = SeriesRing(ModularIntegers(2 ** k), "b", bprec)
    F = family_law(ring_k, ring_k.one(), ring_k.gen(), xprec)
    return make_fgl(F, FamilyOrigin(bprec))


def family_fgl_at(ring: SeriesRing, param: Series, xprec: int,
                  check_assoc=False) -> FormalGroupLaw:
    """Family law at A = 1, B = param (a series in the base of `ring`),
    validated with associativity when check_assoc is set."""
    F = family_law(ring, ring.one(), param, xprec)
    validate_fgl(F, check_assoc)
    return FormalGroupLaw(F)


# -- m-series and heights --------------------------------------------------------

def m_series(F: FormalGroupLaw, m: int) -> Series:
    """[m](x) by iterated formal addition; m >= 1."""
    ctx1 = SeriesCtx(F.ring, ("x",), F.prec)
    x = ctx1.gen("x")
    cur = x
    for _ in range(m - 1):
        cur = F.F.compose({"x": x, "y": cur})
    return cur


def height_mod_p(F: FormalGroupLaw, p: int) -> int:
    """log_p of the degree of the first nonzero term of [p](x); the ring must
    already have characteristic p."""
    if F.ring.char != p:
        raise AlgebraError(f"height_mod_p needs a characteristic-{p} coefficient ring")
    sp = m_series(F, p)
    d = sp.order()
    if d is None:
        raise HeightExceedsPrecision("[p](x) vanishes to the stored precision")
    h, u = _valuation(d, p)
    if u != 1:
        raise AlgebraError(f"[p](x) has leading degree {d}, not a power of {p}")
    return h


# -- logarithms -------------------------------------------------------------------

def fgl_log(F: FormalGroupLaw, N: int | None = None) -> Series:
    """ell with ell(F(x,y)) = ell(x) + ell(y), ell'(0) = 1, over a torsion-free
    rationalized coefficient ring."""
    N = F.prec - 1 if N is None else N
    Qring, lift = F.ring.rationalize()
    # the x^N log coefficient needs F through total degree N
    if N + 1 > F.prec:
        raise TruncationError("log precision exceeds the stored law")
    # ell' = 1/(dF/dy)(x, 0), read from the x^i y coefficients of F, i < N
    dFy = SeriesCtx(Qring, ("x",), N).series(
        {(i,): lift(c) for (i, j), c in F.F.terms.items() if j == 1 and i < N})
    return dFy.inverse().integrate()


def fgl_exp(F: FormalGroupLaw) -> Series:
    return fgl_log(F).reverse()


def law_from_log(lam: Series, P: int) -> Series:
    """exp(lam(x) + lam(y)) below total degree P, for a univariate lam over a
    Q-algebra with lam(0) = 0 and lam'(0) a unit, known below P.

    No reversion and no composition: for E the inverse of lam, the flow of
    the invariant vector field D = w d/dx, w = 1/lam', gives
    E(lam(x) + t) = sum_n t^n A_n(x) with A_n = D^n(x)/n!, so the law is
    sum_n A_n(x) lam(y)^n (Hazewinkel, Formal Groups and Applications, 1978,
    section 1).  A_n is exact below P - n (_flow_terms), and coefficient
    (i, j) reads A_n only at i < P - j <= P - n.  Only the half i >= j is
    assembled, column j as one product of A_n by [y^j] lam^n per n <= j,
    and mirrored: the law is symmetric.  So (P - 1)//2 products with w, and
    the powers lam^n below y^((P + 1)//2)."""
    R = lam.ctx.ring
    if P > lam.prec:
        raise TruncationError(f"law below degree {P} from a log known below {lam.prec}")
    if not R.is_zero(lam.constant_term()):
        raise NotInvertible("the logarithm has a nonzero constant term")
    if not R.is_unit(lam.ucoeff(1)):
        raise NotInvertible("linear coefficient of the logarithm is not a unit")
    out = SeriesCtx(R, ("x", "y"), P)
    if P == 1:
        return out.zero()
    half = (P - 1) // 2          # the largest j with j <= i and i + j < P
    A = _flow_terms(lam, P, half)
    terms = {(1, 0): R.one(), (0, 1): R.one()}      # column 0: A_0 = x
    lam_low = lam.truncate(half + 1)
    powers = [lam_low]                              # lam^(n + 1)
    while len(powers) < half:
        powers.append(powers[-1] * lam_low)
    for j in range(1, half + 1):
        cctx = lam.ctx.at_prec(P - j)
        col = cctx.zero()
        for n in range(1, j + 1):
            c = powers[n - 1].ucoeff(j)
            if not R.is_zero(c):
                low = Series(cctx, {e: v for e, v in A[n].terms.items() if j <= e[0] < P - j})
                col = col + low * cctx.const(c)
        for (i,), v in col.terms.items():
            terms[(i, j)] = v
            terms[(j, i)] = v
    return Series(out, terms)


def _flow_terms(lam: Series, P: int, top: int) -> list:
    """[A_0, ..., A_top] for A_0 = x and A_n = w A_(n-1)'/n, w = 1/lam', where
    lam is known below P, each A_n at its honest precision P - n.  w is known
    below P - 1, and A_(n-1)' is cut to P - n before the product, since a
    derivative's top coefficient is not certified."""
    R = lam.ctx.ring
    A = [lam.ctx.at_prec(P).gen(lam.ctx.vars[0])]
    w = lam.truncate(P).derivative().truncate(P - 1).inverse()
    for n in range(1, top + 1):
        dA = A[-1].derivative().truncate(P - n)
        A.append((w * dA).scale(R.inv(R.from_int(n))))
    return A


# -- Hazewinkel generators ---------------------------------------------------------

@dataclass
class PTypicalData:
    v: list               # [v_1, .., v_n] descended to the base ring


def hazewinkel_generators(F: FormalGroupLaw, p: int, n: int) -> PTypicalData:
    """v_i solved from p*ell_m = sum_{i<m} ell_i v_{m-i}^(p^i), with
    ell_k = the x^(p^k) log coefficient; integrality over the base asserted."""
    need = p ** n + 1
    if F.prec < need:
        raise TruncationError(f"law precision {F.prec} < required {need}")
    ell = fgl_log(F, p ** n)
    Qring = ell.ctx.ring
    ells = [Qring.one()] + [ell.ucoeff(p ** k) for k in range(1, n + 1)]
    return PTypicalData([reduce_scalar(v, F.ring) for v in _hazewinkel_solve(Qring, p, ells)])


def _hazewinkel_solve(R: Ring, p: int, ells: list) -> list:
    """[v_1, .., v_n] from p*ell_m = sum_{0<=i<m} ell_i v_(m-i)^(p^i) over R,
    given [ell_0 = 1, ell_1, .., ell_n] (Hazewinkel's formula; Ravenel,
    Complex Cobordism, ch. 4).  `bp.right_unit` runs it on the eta_R(ell_m)."""
    vs = []
    for m in range(1, len(ells)):
        acc = R.scale_int(ells[m], p)
        for i in range(1, m):
            acc = R.sub(acc, R.mul(ells[i], R.pow(vs[m - i - 1], p ** i)))
        vs.append(acc)
    return vs


# -- isomorphism search --------------------------------------------------------------

@dataclass
class Obstruction:
    degree: int
    details: dict           # the unit candidate rendered -> the degree it failed at
    proof: bool = True      # False when an earlier c_d was one of several


@dataclass
class IsoResult:
    phi: Series
    linear: object


def hom_residual(f: Series, F: Series, G: Series) -> Series:
    """f(F(x, y)) - G(f(x), f(y)) for a univariate f of order >= 1 and laws
    F, G in ("x", "y"): zero exactly when f is a homomorphism F -> G below
    min(f.prec, F.prec, G.prec), the precision the result is exact below."""
    t = f.ctx.vars[0]
    u, v = F.ctx.gen("x"), F.ctx.gen("y")
    return f.compose({t: F}) - G.compose({"x": f.compose({t: u}), "y": f.compose({t: v})})


def strict_apply(F: FormalGroupLaw, phi: Series) -> FormalGroupLaw:
    """Law G with phi(F(x,y)) = G(phi x, phi y), for phi with unit linear term."""
    inv = phi.reverse()
    ctx = F.ctx
    u, v = ctx.gen("x"), ctx.gen("y")
    iu = inv.compose({inv.ctx.vars[0]: u})
    iv = inv.compose({inv.ctx.vars[0]: v})
    inner = F.F.compose({"x": iu, "y": iv})
    G = phi.compose({phi.ctx.vars[0]: inner})
    return make_fgl(G)


def find_iso(F: FormalGroupLaw, G: FormalGroupLaw, mode: str = "strict",
             N: int | None = None, unit_candidates=None):
    """phi with phi(F(x,y)) = G(phi x, phi y) to degree N, solved degree by
    degree (Hazewinkel, Formal Groups and Applications, 1978, section 1);
    returns IsoResult or Obstruction (a value, not an error).  mode "strict"
    takes c_1 = 1; "linear-unit" tries each c_1 in unit_candidates
    (R.unit_candidates(2) when None).  Raises ValueError for another mode or
    for unit_candidates with "strict", and TruncationError unless
    N < min(F.prec, G.prec).

    Step d reads total degree d of G(phi x, phi y) - phi(F), phi without c_d.
    Its rows comb(d, a) c_d = t_a (0 < a < d) are solved as the one row
    g c_d = T of _solve_degree, c_d is R.divide(T, g) (the least solution
    over Z/m, coefficientwise over Z/m[[b]]), and the pure coefficients (d, 0) and (0, d) must vanish.  Where
    that row has more than one solution (g not a unit, in a ring with torsion
    such as Z/2^k[[b]]), another choice of c_d might reach further, so a
    later Obstruction is not a proof that no isomorphism exists, and its
    proof field says so: g is a zero divisor of R (_zero_divisor) over
    Z/2^k and Z/2^k[[b]] at d = 2, 4, 8, ..., over F_p at d = p, p^2, ...,
    never over Z, Q, Z_(p) or Z[1/p].

    The (a, d - a) coefficient of phi(F) with c_d left out is the sum of
    c_k [F^k]_(a, d-a) over k < d, read straight from the powers F^k.  They
    are made once per call at precision N + 1, at most N - 1 products, and
    every candidate c1 reads them.  G(phi x, phi y) takes no composition
    (online arithmetic, van der Hoeven, J. Symb. Comput. 34, 2002): for
    G = sum_i x^i g_i(y) its (a, b) coefficient is sum over i <= a of
    p[i][a] s[i][b], from two univariate scalar tables filled one column per
    degree,
      p[i][a] = [t^a] phi^i = sum_k c_k p[i-1][a-k], i up to G's largest
                exponent (x + y + u xy needs only phi^0 and phi^1),
      s[i][b] = [t^b] g_i(phi(t)) = sum_j g_ij p[j][b].
    Column a is final once c_1..c_a are known, and only p[1][a] = c_a holds
    c_a itself.  So step d fills column d with c_d = 0, reads each
    coefficient of degree d as one R.dot of both sides, and then puts c_d
    in p[1][d] and adds g_i1 c_d to s[i][d]."""
    R = F.ring
    top = min(F.prec, G.prec)
    if N is None:
        N = top - 1
    if N >= top:
        raise TruncationError(f"find_iso to degree {N} needs laws of prec > {N}, "
                              f"not {F.prec} and {G.prec}")
    if mode == "strict":
        if unit_candidates is not None:
            raise ValueError("unit_candidates apply to mode 'linear-unit', not 'strict'")
        candidates = [R.one()]
    elif mode == "linear-unit":
        candidates = unit_candidates if unit_candidates is not None else R.unit_candidates(2)
    else:
        raise ValueError(f"find_iso mode {mode!r} is neither 'strict' nor 'linear-unit'")
    g = {}          # g[i] = [(j, g_ij)]: G's terms x^i y^j of total degree <= N
    for (i, j), gij in G.F.terms.items():
        if i + j <= N:
            g.setdefault(i, []).append((j, gij))
    g = sorted(g.items())
    g_1 = [(i, gij) for i, row in g for j, gij in row if j == 1]
    npow = max([1] + [max(i, j) for i, row in g for j, _ in row]) + 1
    zero = R.zero()
    fails = {}
    proof = True
    # the degrees whose row g c_d = T has several solutions when it has one
    free = {d for d in range(2, N + 1)
            if _zero_divisor(R, gcd(*(comb(d, a) for a in range(1, d))))}
    Fpow = [None, F.F.truncate(N + 1)]      # F^k, shared by the candidates
    for c1 in candidates:
        p = [[] for _ in range(npow)]       # p[1] = [c_0, c_1, ...] is phi
        s = {i: [] for i, _ in g}
        for a, ca in enumerate((zero, c1)):
            p[1].append(ca)
            _fill_column(R, g, p, s, a)
        known = [(R.neg(c1), Fpow[1].terms)]    # (-c_k, F^k) for the nonzero c_k
        ok = True
        for d in range(2, N + 1):
            p[1].append(zero)               # c_d, not known yet
            _fill_column(R, g, p, s, d)
            deg_d = []
            for a in range(d + 1):
                e = (a, d - a)
                xs = [p[i][a] for i, _ in g if i <= a]
                ys = [s[i][d - a] for i, _ in g if i <= a]
                for nc, Fk in known:
                    if e in Fk:
                        xs.append(nc)
                        ys.append(Fk[e])
                deg_d.append(R.dot(xs, ys))
            cd = _solve_degree(R, d, deg_d[1:d])
            if cd is None or not (R.is_zero(deg_d[0]) and R.is_zero(deg_d[d])):
                fails[R.render(c1)] = d
                proof = proof and free.isdisjoint(range(2, d))
                ok = False
                break
            if not R.is_zero(cd):
                p[1][d] = cd
                for i, gi1 in g_1:
                    s[i][d] = R.add(s[i][d], R.mul(gi1, cd))
                if d < N:           # F^d is read again only by a later step
                    while len(Fpow) <= d:
                        Fpow.append(Fpow[-1] * Fpow[1])
                    known.append((R.neg(cd), Fpow[d].terms))
        if ok:
            phi = SeriesCtx(R, ("t",), N + 1).series({(k,): ck for k, ck in enumerate(p[1])})
            return IsoResult(phi, c1)
    return Obstruction(max(fails.values()) if fails else 2, fails, proof)


def _zero_divisor(R: Ring, g: int) -> bool:
    """Whether g r = 0 for some nonzero r in R.  The rings of characteristic
    0 here (Z, Q, Z_(p), Z[1/p] and the series, polynomial and extension
    rings over them) are torsion-free.  A ring of characteristic m > 0 is a
    Z/m-algebra, where (m/q) 1 is nonzero and killed by g for q = gcd(g, m)
    > 1, and g is a unit when q = 1."""
    return R.char > 0 and gcd(g, R.char) > 1


def _fill_column(R: Ring, g: list, p: list, s: dict, a: int):
    """Column a of find_iso's tables, with p[1][a] = c_a in place:
    p[0][a] = [a = 0], p[i][a] = sum_k c_k p[i-1][a-k] for i >= 2 (zero for
    i > a), then s[i][a] = sum_j g_ij p[j][a]; each entry is one R.dot."""
    p[0].append(R.one() if a == 0 else R.zero())
    c = p[1]
    for i in range(2, len(p)):
        prev = p[i - 1]
        ks = range(1, a - i + 2)
        p[i].append(R.dot([c[k] for k in ks], [prev[a - k] for k in ks]))
    for i, row in g:
        row = [(j, gij) for j, gij in row if j <= a]
        s[i].append(R.dot([gij for _, gij in row], [p[j][a] for j, _ in row]))


def _solve_degree(R: Ring, d: int, t: list):
    """A c with comb(d, a) c = t[a - 1] for every 0 < a < d, or None.

    With g = gcd_a comb(d, a) = sum of u_a comb(d, a) (Bezout), the rows hold
    exactly when g c = T = sum of u_a t_a and t_a = (comb(d, a)/g) T for
    every a.  So c is the one division R.divide(T, g), and no solution sets
    of the separate rows are intersected."""
    combs = [comb(d, a) for a in range(1, d)]
    g, u = 0, []
    for n in combs:
        g, s, r = _bezout(g, n)
        u = [s * v for v in u] + [r]
    T = R.zero()
    for ua, ta in zip(u, t):
        if ua:
            T = R.add(T, R.scale_int(ta, ua))
    c = R.divide(T, R.from_int(g))
    if c is None or not all(R.eq(ta, R.scale_int(T, n // g)) for n, ta in zip(combs, t)):
        return None
    return c


def _bezout(a: int, b: int):
    """(g, s, r) with g = gcd(a, b) = s a + r b."""
    s0, s1, r0, r1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        r0, r1 = r1, r0 - q * r1
    return a, s0, r0


# -- canonical subgroup ----------------------------------------------------------------

@dataclass
class KernelPolynomial:
    """x*(x + alpha): the distinguished degree-2 factor of [2](x); the kernel
    points are {0, -alpha}."""
    alpha: object


def canonical_subgroup(F: FormalGroupLaw) -> KernelPolynomial:
    """x(x + alpha), the distinguished degree-2 factor of [2](x) by Weierstrass
    preparation, for a law of height one whose kernel points {0, -alpha} are
    closed under F.  [2](x) comes from F.two_series(), so the
    quotient_by_subgroup that follows reads it again without making it."""
    R = F.ring
    two = F.two_series()
    try:
        dist, d = weierstrass_prepare(two)
    except PreparationFailed as e:
        raise NotOrdinary(f"[2](x) has no distinguished degree-2 factor: {e}") from e
    if d != 2:
        raise NotOrdinary(f"Weierstrass degree of [2](x) is {d}, not 2 (height != 1)")
    if not R.is_zero(dist[0]):
        raise NotOrdinary("distinguished factor has a nonzero constant term")
    alpha = dist[1]
    if R.divide(alpha, R.from_int(2)) is None:
        raise NotOrdinary("alpha is not divisible by 2")
    # -alpha is a 2-torsion point, so the kernel is closed under F
    if not _divides_two_series(F, two, alpha):
        raise NotOrdinary("kernel points are not closed under the law")
    return KernelPolynomial(alpha)


def _divides_two_series(F: FormalGroupLaw, two: Series, alpha) -> bool:
    """Whether x + alpha divides g = [2](x)/x to working depth: g(-alpha) has
    (2, b)-valuation at least min(F.prec - 1, nilpotency).  For alpha in the
    maximal ideal that is as far as a law known below degree F.prec fixes
    alpha: a term a_k x^k of [2](x) with k >= F.prec moves g(-alpha) by
    a_k alpha^(k-1), of valuation at least F.prec - 1."""
    R = F.ring
    t = R.neg(alpha)
    # g(t) by Horner's rule, one product per degree of g
    top = max((k for (k,) in two.terms), default=1)
    rem = two.ucoeff(top)
    for k in range(top - 1, 0, -1):
        rem = R.mul(rem, t)
        if (k,) in two.terms:
            rem = R.add(rem, two.terms[(k,)])
    return _two_b_valuation(rem, R) >= min(F.prec - 1, _nilpotency(R))


def _nilpotency(R: Ring):
    b = R.nilpotent_bound()
    return b if b is not None else 10 ** 9


def _two_b_valuation(v, R: Ring) -> int:
    """(2, b)-adic valuation of a scalar in Z/2^k or Z/2^k[[b]]."""
    if isinstance(R, ModularIntegers):
        if v % R.m == 0:
            return 10 ** 9
        return _valuation(v % R.m, 2)[0]
    if isinstance(R, SeriesRing):
        if v.is_zero():
            return 10 ** 9
        out = 10 ** 9
        for (m,), c in v.terms.items():
            out = min(out, m + _two_b_valuation(c, R.base))
        return out
    raise TypeError(f"no (2,b) valuation on {R!r}")


# -- isogeny quotient --------------------------------------------------------------------

@dataclass
class QuotientResult:
    fgl: FormalGroupLaw
    isogeny: Series          # over the original ring, f(x) = x * (x +_F kernel point)
    tau: object              # kernel point (reduced)
    fgl_lift: Series         # quotient law over the rational carrier
    isogeny_lift: Series


def quotient_by_subgroup(F: FormalGroupLaw, K: KernelPolynomial) -> QuotientResult:
    """The quotient law F/K and the isogeny f(x) = x * (x +_F tau), built over
    the torsion-free lift of F (Q[[b]] or Q) and reduced into F's ring.

    The lift runs at F's precision P, with no guard degrees.  Over a
    Q-algebra, truncation mod x^P is a ring map that commutes with
    composition into series of order >= 1 and with reversion, so each step is
    exact below x^P when its inputs are: the chord with the 2-torsion point
    (its denominators are units, so it loses no degree), the log L and
    lam = 2 L(f^-1), solved by L.compose_reverse(f) one degree at a time
    from the powers of f.  The quotient law exp(lam x + lam y) is then read
    from lam by law_from_log.  No step of the lift reverses or composes a
    series.

    The family curve y^2 + xy + by = x^3 over Q[[b]]/(b^m), the lift of
    two_adic_family_fgl (FamilyOrigin(m)), has one lift for every 2-adic
    modulus, so it is built once per process (_family_lift_data): the memo
    keeps the lift (f, tau, Fbar) of the largest (m, P) built so far, serves
    a request at or below it in both coordinates by truncation in b and in
    x, and rebuilds at the componentwise maximum otherwise.  Truncation in x is
    the contract above.  Truncation in b is exact because
    Q[[b]]/(b^M) -> Q[[b]]/(b^m) is a ring map and every step of the lift is
    ring arithmetic, the inverse of a unit or a division by a nonzero
    integer; the 2-torsion point is the unique Newton root, by Hensel's
    lemma, since B'(-1/4) = 1/4 + 2b is a unit.  A conic origin (b, c) runs
    the same chord and log, unmemoised, on the nodal cubic
    y^2 - b xy = x^3 - c x^2 over Q, whose chord law is the conic law; a
    conic with even b has no unit x^2 coefficient in [2](x), so the kernel
    check refuses it before any lift is built.  The checks below run on
    every call, served from the memo or not: 2-integrality, refused by the
    reduction into F's ring itself (a 2-adic denominator has no image in
    Z/2^k), the kernel point and the isogeny identity."""
    R = F.ring
    _check_kernel(F, K)
    out_prec = F.prec
    fq, tau_q, Fbar_q = _quotient_lift(F.origin, out_prec)
    fq_out = fq.truncate(out_prec)
    try:
        Fbar = series_reduce(Fbar_q, R)
        f_red = series_reduce(fq_out, R)
    except IntegralityFailure as e:
        raise QuotientPrecisionError(f"the quotient lift is not 2-integral: {e}") from e
    tau_red = reduce_scalar(tau_q, R)
    # kernel consistency: tau = -alpha up to one lost 2-adic digit
    diff = R.add(tau_red, K.alpha)
    if _two_b_valuation(diff, R) < max((_two_power(R) or 1) - 1, 1):
        raise InvalidKernel("lifted kernel point does not reduce onto the "
                            "kernel polynomial root")
    quotient = make_fgl(Fbar)
    # isogeny identity f(F(x,y)) = F'(f(x), f(y)) re-verified after construction
    if not hom_residual(f_red, F.F, quotient.F).is_zero():
        raise QuotientPrecisionError("isogeny identity fails after reduction")
    return QuotientResult(quotient, f_red, tau_red, Fbar_q, fq_out)


def _check_kernel(F: FormalGroupLaw, K: KernelPolynomial):
    """InvalidKernel unless x(x + alpha) is the distinguished factor of [2](x).

    With g = [2](x)/x, g = (x + alpha) q + g(-alpha), and q(0) is the x^2
    coefficient of [2](x) modulo alpha.  So x(x + alpha) divides [2](x) with
    a unit quotient exactly when g(-alpha) vanishes to working depth and that
    coefficient is a unit; for alpha in the maximal ideal, the uniqueness half
    of Weierstrass preparation then makes x(x + alpha) the canonical
    subgroup's kernel polynomial, to the depth the law determines it.  The
    law has height one exactly when [2](x) has Weierstrass degree 2: a
    non-unit x coefficient and a unit x^2 coefficient (a law known only
    below degree 2 shows none).  [2](x) is F's own, F.two_series(): after
    canonical_subgroup(F) it is not made again, and a kernel polynomial
    from another law is checked against F's series."""
    R = F.ring
    two = F.two_series()
    if R.is_unit(two.ucoeff(1)) or not R.is_unit(two.ucoeff(2)):
        raise NotOrdinary("Weierstrass degree of [2](x) is not 2 (height != 1)")
    if R.is_unit(K.alpha) or not _divides_two_series(F, two, K.alpha):
        raise InvalidKernel("kernel polynomial does not divide [2](x) as the "
                            "distinguished factor")


def _two_power(R: Ring):
    """k when R is Z/2^k or Z/2^k[[b]], None for any other ring."""
    base = R.base if isinstance(R, SeriesRing) else R
    m = base.m if isinstance(base, ModularIntegers) else 0
    return m.bit_length() - 1 if m > 1 and m & (m - 1) == 0 else None


def _quotient_lift(origin, P: int):
    """(f, tau, Fbar) over the origin's Q-algebra, exact below x^P: the
    isogeny, the kernel point and the quotient law, all from _curve_lift.  A
    FamilyOrigin is served by _family_lift_data.  A ConicOrigin (b, c) lifts
    to the nodal cubic y^2 - b xy = x^3 - c x^2 over Q, whose chord law is
    the conic law (x + y + b xy)/(1 - c xy) (Silverman, The Arithmetic of
    Elliptic Curves, IV.1)."""
    if isinstance(origin, FamilyOrigin):
        return _family_lift_data(origin.bprec, P)
    if isinstance(origin, ConicOrigin) and None not in (origin.b, origin.c):
        zero = QQ.zero()
        return _curve_lift(WeierstrassCurve(QQ, -origin.b, -origin.c, zero, zero, zero), P)
    raise QuotientPrecisionError(
        "no torsion-free lift attached to this law; build it with "
        "two_adic_family_fgl or conic_fgl")


_family_lift = None     # (f, tau, Fbar) of the family curve, the largest built so far


def _family_lift_data(bprec: int, P: int):
    """_quotient_lift of y^2 + xy + by = x^3 over S = Q[[b]]/(b^bprec) below
    x^P.  Built once per process: the memo keeps the lift of the largest
    (b-precision, P) built so far, a request at or below it in both
    coordinates truncates it in b and in x, and any other rebuilds it at the
    componentwise maximum.  Each call returns fresh series."""
    global _family_lift
    have = (0, 0) if _family_lift is None else (_family_lift[0].ctx.ring.prec,
                                                  _family_lift[2].prec)
    m, top = max(bprec, have[0]), max(P, have[1])
    if (m, top) != have:
        R = SeriesRing(QQ, "b", m)
        _family_lift = _curve_lift(gamma1_3_curve(R, R.one(), R.gen()), top)
    f, tau, Fbar = _family_lift
    S = SeriesRing(QQ, "b", bprec)

    def cut(c: Series) -> Series:
        """The image of c under Q[[b]]/(b^m') -> S, bprec <= m'."""
        return Series(S.ctx, {e: v for e, v in c.terms.items() if e[0] < bprec})

    return (f.truncate(P).map_coefficients(cut, S), cut(tau),
            Fbar.truncate(P).map_coefficients(cut, S))


def _curve_lift(EQ: WeierstrassCurve, P: int):
    """(f, tau, Fbar) for the canonical 2-torsion point of a curve over Q or
    Q[[b]], exact below x^P: f(x) = x * (x +_F tau) by chord addition against
    the torsion point, tau its formal coordinate, and the quotient law
    Fbar = exp(lam x + lam y) for lam = 2 L(f^-1), L the curve logarithm.
    The chord and the log read one w-series below x^P."""
    x0, y0 = _formal_two_torsion(EQ)
    w = curve_w_series(EQ, P)
    s = sum_with_point(EQ, x0, y0, P, w).rename(("x",))
    f = s.ctx.gen("x") * s
    lam = curve_log(EQ, P, w).compose_reverse(f)
    return f, s.constant_term(), law_from_log(lam.scale(lam.ctx.ring.from_int(2)), P)


def _formal_two_torsion(EQ: WeierstrassCurve):
    """The 2-torsion point nearest infinity: Newton on 4x^3 + b2 x^2 + 2 b4 x + b6
    from x = -b2/4, exact over Q or Q[[b]]."""
    from .elliptic import invariants
    R = EQ.ring
    inv = invariants(EQ)
    b2, b4, b6 = inv.b2, inv.b4, inv.b6
    quarter = R.divide(R.one(), R.from_int(4))
    if quarter is None:
        raise QuotientPrecisionError("lift ring must contain 1/4")
    x = R.neg(R.mul(b2, quarter))

    def B(t):
        return R.add(R.scale_int(R.mul(t, R.mul(t, t)), 4),
                     R.add(R.mul(b2, R.mul(t, t)),
                           R.add(R.scale_int(R.mul(b4, t), 2), b6)))

    def Bp(t):
        return R.add(R.scale_int(R.mul(t, t), 12),
                     R.add(R.scale_int(R.mul(b2, t), 2), R.scale_int(b4, 2)))

    for _ in range(64):
        val = B(x)
        if R.is_zero(val):
            break
        step = R.divide(val, Bp(x))
        if step is None:
            raise QuotientPrecisionError("Newton step not invertible")
        x = R.sub(x, step)
    else:
        raise QuotientPrecisionError("two-torsion Newton did not terminate")
    y = R.divide(R.neg(R.add(R.mul(EQ.a1, x), EQ.a3)), R.from_int(2))
    return x, y


# -- recognition in the family and the Frobenius defect ------------------------------

@dataclass
class Recognition:
    b_param: Series     # psi^2(b) as a series over Z/2^k[[b]]'s coefficients
    phi: Series         # strict isomorphism onto the family member


def recognize_in_family(Fq: FormalGroupLaw) -> Recognition:
    """Given a law Fq over Z/2^k[[b]] congruent mod 2 to the family at b^2,
    find b' = b^2 mod 2 and an isomorphism phi = t mod 2 with phi(Fq) =
    F_b'(phi x, phi y), one 2-adic digit per level (Hensel's lemma).

    Level l < k starts from a pair (b', phi) that solves the equation mod
    2^l, so the residual phi(Fq) - F_b'(phi x, phi y) is divisible by 2^l;
    its next bit, one per coefficient b^m x^i y^j, is the target.  Adding
    2^l b^m t^d to phi moves that bit by c_d b^m mod 2, where c_d = F0^d -
    (dF0/dx) x^d - (dF0/dy) y^d and F0 = F_(b^2) over F_2[[b]]; adding
    2^l b^m to b' moves it by (dF_s/ds at s = b^2) b^m.  That s-derivative
    is the eps-coordinate of the family law over the dual numbers
    F_2[[b]][eps]/(eps^2) at s = b^2 + eps (_family_b_direction).  Each c_d
    is built once, and its columns for the b^m are its bits read at b-offset
    m (_recognition_columns), with no product by b^m; the columns run over
    (d, m), d outer, then over the b'-directions, and one f2_solve per
    level picks the corrections.  At level k the residual must vanish.  The
    d = 1 corrections keep phi'(0) = 1 only mod 2: the pair (b', phi) has a
    joint kernel direction, and no lift may exist with phi'(0) = 1 exactly."""
    R = Fq.ring
    if not (isinstance(R, SeriesRing) and isinstance(R.base, ModularIntegers)):
        raise RecognitionFailed("expected a Z/2^k[[b]] coefficient ring")
    k = _two_power(R)
    if k is None:
        raise RecognitionFailed("modulus must be a power of 2")
    bprec, xprec = R.prec, Fq.prec
    R2 = SeriesRing(PrimeField(2), R.var, bprec)
    b2sq = R2.mul(R2.gen(), R2.gen())
    F0 = family_fgl_at(R2, b2sq, xprec - 1).F
    if not series_reduce(Fq.F, R2) == F0:
        raise RecognitionFailed("mod-2 reduction is not the Frobenius twist of the family")
    row_at = _recognition_rows(xprec, bprec)
    cols = _recognition_columns(F0, _family_b_direction(R2, b2sq, xprec), row_at)
    units = [(d, m) for d in (*range(1, xprec), 0) for m in range(bprec)]

    ctx1 = SeriesCtx(R, ("t",), xprec)
    phi = ctx1.gen("t")
    bparam = R.mul(R.gen(), R.gen())
    for level in range(1, k + 1):
        resid = hom_residual(phi, Fq.F, family_fgl_at(R, bparam, xprec - 1).F)
        if level == k:
            if not resid.is_zero():
                raise RecognitionFailed("recognition residual nonzero at full modulus")
            break
        target = _recognition_bits(resid, row_at, level)
        if target == 0:
            continue
        sol = f2_solve(cols, target)
        if sol is None:
            raise RecognitionFailed(f"no lift at 2-adic level {level}")
        step = {}
        for idx, (d, m) in enumerate(units):
            if (sol >> idx) & 1:
                step.setdefault(d, {})[(m,)] = R.base.from_int(2 ** level)
        bparam = R.add(bparam, Series(R.ctx, step.pop(0, {})))
        phi = phi + Series(ctx1, {(d,): Series(R.ctx, c) for d, c in step.items()})
    return Recognition(bparam, phi)


def _recognition_rows(xprec: int, bprec: int) -> dict:
    """The F_2 row of each coefficient b^m x^i y^j, i + j < xprec, m < bprec:
    m innermost, so the rows of one x^i y^j are a run of bprec bits."""
    return {r: n for n, r in enumerate(
        (i, j, m) for i in range(xprec) for j in range(xprec - i) for m in range(bprec))}


def _recognition_bits(s: Series, row_at: dict, level: int = 0) -> int:
    """Bit `level` of each b^m x^i y^j coefficient of s, which must vanish
    below that bit."""
    out = 0
    for (i, j), c in s.terms.items():
        for (m,), val in c.terms.items():
            if val % 2 ** level:
                raise RecognitionFailed(f"residual not divisible by 2^{level}")
            if (val >> level) & 1:
                out |= 1 << row_at[(i, j, m)]
    return out


def _recognition_columns(F0: Series, Gs: Series, row_at: dict) -> list:
    """recognize_in_family's F_2 columns: c_d b^m for d = 1.. (d outer) and
    m < bprec, then Gs b^m, for F0 over F_2[[b]]/(b^bprec).  Over that ring
    b^m moves the b^j coefficient to b^(j + m) and drops it at bprec, so the
    column of s b^m is the bits of s shifted by m within each run of bprec
    rows of one x^i y^j, read from s's own bits."""
    xprec, bprec = F0.prec, F0.ctx.ring.prec
    runs = sum(1 << n for n in range(0, len(row_at), bprec))     # the b^0 rows
    masks = [runs * (((1 << bprec) - 1) ^ ((1 << m) - 1)) for m in range(bprec)]

    def at_offsets(s: Series) -> list:
        low = _recognition_bits(s, row_at)
        return [(low << m) & mask for m, mask in enumerate(masks)]

    x, y = F0.ctx.gen("x"), F0.ctx.gen("y")
    G1, G2 = F0.derivative("x"), F0.derivative("y")
    cols = []
    Fd, xd, yd = F0, x, y
    for d in range(1, xprec):
        if d > 1:
            Fd, xd, yd = Fd * F0, xd * x, yd * y
        cols += at_offsets(Fd - G1 * xd - G2 * yd)
    return cols + at_offsets(Gs)


def _family_b_direction(R2: SeriesRing, param: Series, xprec: int) -> Series:
    """dF_s/ds at s = param, below total degree xprec: the eps-coordinate of
    the family law over R2[eps]/(eps^2) at s = param + eps."""
    D = QuotientExtension(R2, (R2.zero(), R2.zero(), R2.one()))
    Fd = family_law(D, D.one(), (param, R2.one()), xprec - 1)
    return Series(SeriesCtx(R2, ("x", "y"), xprec),
                  {e: c[1] for e, c in Fd.terms.items() if not R2.is_zero(c[1])})


def theta_defect(x, psi2_x, ring: Ring | None = None):
    """theta with psi^2(x) = x^2 + 2 theta(x).

    Integers/rationals: the quotient by 2 in Z_(2).  Series over
    Z/2^k[[b]]: a solution of 2 theta = psi^2(x) - x^2 there, read in
    Z/2^(k-1)[[b]], where it is unique, so k >= 2; over Z/2[[b]] theta is
    not defined and NotAFrobeniusLift is raised.
    """
    if isinstance(x, (int, Fraction)):
        diff = Fraction(psi2_x) - Fraction(x) ** 2
        theta = Z_local(2).divide(diff, 2)
        if theta is None:
            raise NotAFrobeniusLift(f"psi^2(x) - x^2 = {diff} is not 2-divisible")
        return theta
    if isinstance(x, Series) and ring is not None and isinstance(ring, SeriesRing):
        k = _two_power(ring)
        if k is None:
            raise NotAFrobeniusLift("need a 2-power modulus")
        if k < 2:
            raise NotAFrobeniusLift("theta is defined mod 2^(k-1), so it needs k >= 2")
        theta = ring.divide(ring.sub(psi2_x, ring.mul(x, x)), ring.from_int(2))
        if theta is None:
            raise NotAFrobeniusLift("psi^2(b) - b^2 has an odd coefficient")
        half = SeriesRing(ModularIntegers(2 ** (k - 1)), ring.var, ring.prec)
        return reduce_scalar(theta, half)
    raise TypeError("unsupported carrier for theta")
