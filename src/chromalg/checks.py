"""Named verification checks, grouped into suites.

Each check is a function (cfg, rng) -> detail string; raising means failure.
Check ids are stable and each carries a claim anchor resolving to an entry in
docs/CLAIMS.md."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import bp, elliptic, fgl, kforms, moduli, steenrod
from .errors import InvalidKernel, NotOrdinary
from .poly import PolyRing
from .rings import (GF, ModularIntegers, PrimeField, QQ, Z_inverted, ZZ,
                    omega_ring, sqrt_minus3)
from .series import SeriesCtx, SeriesRing


class CheckFailure(AssertionError):
    pass


def ensure(cond, msg: str):
    if not cond:
        raise CheckFailure(msg)


@dataclass
class Check:
    id: str
    suite: str
    claim: str
    fn: object


REGISTRY: list[Check] = []

# the suites in report order, under the prefix of their check ids
_SUITE_OF = {"ell": "elliptic", "fgl": "fgl", "bp": "bp", "st": "steenrod",
             "mod": "moduli", "mf": "modularforms", "kf": "kforms"}
SUITES = tuple(_SUITE_OF.values())


def check(id: str):
    """Register a check "<prefix>.<claim>": the prefix names its suite, the
    claim is its anchor in docs/CLAIMS.md."""
    prefix, _, claim = id.partition(".")
    if prefix not in _SUITE_OF or not claim:
        raise ValueError(f"check id {id!r} is not <prefix>.<claim> with a suite prefix")

    def deco(fn):
        REGISTRY.append(Check(id, _SUITE_OF[prefix], claim, fn))
        return fn
    return deco


# ---------------------------------------------------------------- elliptic --

@check("ell.family-invariants")
def _family_invariants(cfg, rng):
    E, P = elliptic.universal_gamma1_3()
    A, B = P.gen("A"), P.gen("B")
    inv = elliptic.invariants(E)
    ensure(inv.c4 == A * (A ** 3 - 24 * B), "c4")
    ensure(inv.c6 == -(A ** 6) + 36 * (A ** 3) * B - 216 * B * B, "c6")
    ensure(inv.disc == (B ** 3) * (A ** 3 - 27 * B), "disc")
    ensure(1728 * inv.disc == inv.c4 ** 3 - inv.c6 ** 2, "1728 disc relation")
    return "c4 = A(A^3-24B), c6 = -A^6+36A^3B-216B^2, disc = B^3(A^3-27B)"


@check("ell.family-j")
def _family_j(cfg, rng):
    E, P = elliptic.universal_gamma1_3()
    A, B = P.gen("A"), P.gen("B")
    num, den = elliptic.j_invariant(E)
    ensure(num == (A ** 3) * ((A ** 3 - 24 * B) ** 3), "numerator")
    ensure(den == (B ** 3) * (A ** 3 - 27 * B), "denominator")
    return "j = A^3 (A^3-24B)^3 / (B^3 (A^3-27B)) as an exact fraction"


@check("ell.weight-rescaling")
def _weight_rescaling(cfg, rng):
    P = PolyRing(ZZ, ("A", "B", "L"), weights=(1, 3, 1), laurent=("L",))
    A, B, L = P.gen("A"), P.gen("B"), P.gen("L")
    E = elliptic.gamma1_3_curve(P, A, B)
    Es = elliptic.gamma1_3_curve(P, L * A, (L ** 3) * B)
    inv, invs = elliptic.invariants(E), elliptic.invariants(Es)
    ensure(invs.c4 == (L ** 4) * inv.c4, "c4 weight 4")
    ensure(invs.c6 == (L ** 6) * inv.c6, "c6 weight 6")
    ensure(invs.disc == (L ** 12) * inv.disc, "disc weight 12")
    n1, d1 = elliptic.j_invariant(E)
    n2, d2 = elliptic.j_invariant(Es)
    ensure(n1 * d2 == n2 * d1, "j invariant under rescaling")
    return "(A,B) -> (tA, t^3 B) scales c4, c6, disc by t^4, t^6, t^12 and fixes j"


@check("ell.tate-cusp")
def _tate_cusp(cfg, rng):
    P = PolyRing(ZZ, ("beta",))
    beta = P.gen("beta")
    T = elliptic.gamma1_3_curve(P, beta, P.zero())
    inv = elliptic.invariants(T)
    ensure(inv.c4 == beta ** 4 and inv.c6 == -(beta ** 6), "c4, c6 at the cusp")
    ensure(inv.disc.is_zero(), "disc = 0 at the cusp")
    # family evaluation A -> beta, B -> 0 gives the same values
    E, PF = elliptic.universal_gamma1_3()
    invf = elliptic.invariants(E)
    sub = {"__ring__": P, "A": beta, "B": P.zero(),
           "__coeff__": lambda c: P.from_int(c)}
    ensure(invf.c4.substitute(sub) == inv.c4, "family c4 specializes")
    ensure(invf.c6.substitute(sub) == inv.c6, "family c6 specializes")
    return "y^2 + beta xy = x^3 has c4 = beta^4, c6 = -beta^6; A -> beta, B -> 0"


@check("ell.reduction-table")
def _reduction_table(cfg, rng):
    counts = {}
    for q in (2, 4, 8):
        F = GF(q)
        for A in F.elements():
            for B in F.elements():
                if F.is_zero(A) and F.is_zero(B):
                    continue
                t = elliptic.reduction_type(elliptic.gamma1_3_curve(F, A, B))
                counts[(q, t)] = counts.get((q, t), 0) + 1
                # refuses the chart A = 1 too: each chart fiber (1, b) is swept here
                if t == elliptic.SMOOTH_SUPERSINGULAR:
                    ensure(F.is_zero(A), f"supersingular off A=0 over GF({q})")
                if F.is_zero(A) and t in (elliptic.SMOOTH_ORDINARY,):
                    raise CheckFailure(f"A=0 smooth fiber classified ordinary over GF({q})")
                if t == elliptic.ADDITIVE:
                    raise CheckFailure("additive fiber away from (0,0)")
    return f"exhaustive over GF(2), GF(4), GF(8): {sorted((k, v) for k, v in counts.items())}"


@check("ell.three-torsion")
def _three_torsion(cfg, rng):
    E, P = elliptic.universal_gamma1_3()
    ensure(elliptic.three_torsion_check(E, (P.zero(), P.zero())), "family origin")
    # tangent at the origin is horizontal: F_x(0,0) = 0 while F_y(0,0) = B
    fx, fy = elliptic.tangent_gradient(E, (P.zero(), P.zero()))
    ensure(fx.is_zero() and fy == P.gen("B"), "horizontal tangent at the origin")
    F4 = GF(4)
    C = elliptic.curve(F4, F4.zero(), F4.zero(), F4.one(), F4.zero(), F4.zero())
    ensure(elliptic.three_torsion_check(C, (F4.zero(), F4.zero())), "y^2+y=x^3 origin")
    EQ = elliptic.curve(QQ, QQ.one(), QQ.zero(), QQ.one(), QQ.zero(), QQ.one())
    ensure(not elliptic.three_torsion_check(EQ, (Fraction(-1), Fraction(0))),
           "(-1,0) on y^2+xy+y=x^3+1 is 2-torsion, not 3-torsion")
    return "(0,0) has exact order 3 on the family and on y^2+y=x^3; control point fails"


@check("ell.formal-group-family")
def _formal_group_family(cfg, rng):
    N = min(9, max(6, cfg.series_prec // 2))
    F = fgl.universal_family_fgl(N)
    fgl.validate_fgl(F.F)
    # the law is rehomogenised from its A = 1 chart, so homogeneity is read
    # from the chord over Z[A, B], run here as the independent side
    E, P = elliptic.universal_gamma1_3()
    chord = fgl.fgl_from_curve(E, N)
    ensure(F.F == chord.F, "universal law differs from the chord over Z[A, B]")
    A = P.gen("A")
    ensure(F.coefficient(1, 1) == -A, "degree-2 coefficient is -A")
    ensure(F.coefficient(2, 1).is_zero(), "no degree-3 terms")
    for e, c in chord.F.terms.items():
        d = sum(e) - 1
        ensure(c.is_homogeneous() and (c.wdegree() in (None, d)),
               f"coefficient at {e} not weight-homogeneous")
    return f"F = x + y - A xy - ... validated (unit, commutative, associative) to degree {N}"


@check("ell.tate-fgl")
def _tate_fgl(cfg, rng):
    N = max(8, cfg.series_prec)
    T = elliptic.gamma1_3_curve(ZZ, 1, 0)
    F = fgl.fgl_from_curve(T, N)
    M = fgl.conic_fgl(ZZ, -1, 0, N)
    ensure(F.F == M.F, "Tate formal group equals x + y - xy on the nose")
    return f"formal group of y^2+xy=x^3 equals x+y-xy to degree {N}"


@check("ell.aut-supersingular")
def _aut_ss(cfg, rng):
    F4 = GF(4)
    C = elliptic.curve(F4, F4.zero(), F4.zero(), F4.one(), F4.zero(), F4.zero())
    aut = elliptic.automorphism_group(C)
    ensure(len(aut) == 24, f"automorphism count {len(aut)} != 24")
    w = F4.gen()
    omega_action = (w, F4.zero(), F4.zero(), F4.zero())
    ensure(omega_action in set(aut), "x -> w^2 x missing")
    ensure(elliptic.transform_order(F4, omega_action) == 3, "omega action order 3")
    return "Aut(y^2+y=x^3 / GF(4)) has order 24; with the Galois factor of order 2 it "\
           "generates the order-48 symmetry; the x -> w^2 x member has order 3"


@check("ell.aut-ordinary")
def _aut_ord(cfg, rng):
    F4 = GF(4)
    C = elliptic.gamma1_3_curve(F4, F4.one(), F4.gen())
    aut = elliptic.automorphism_group(C)
    ensure(len(aut) == 2, f"ordinary curve automorphisms {len(aut)} != 2")
    return "ordinary fiber (A,B) = (1,w) has only the identity and the involution"


@check("ell.node-appendix")
def _node_appendix(cfg, rng):
    R = Z_inverted(3)
    E = elliptic.curve(R, Fraction(3), Fraction(0), Fraction(1), Fraction(0), Fraction(0))
    nd = elliptic.node_uniformization(E, N=8)
    ensure(nd.node == (Fraction(-1), Fraction(1)), f"node {nd.node} != (-1, 1)")
    ensure(nd.law.b == 3 and nd.law.c == 3, "law parameters")
    num, den = nd.law.as_fraction()
    Pt = num.pring
    t, u = Pt.gen("t"), Pt.gen("u")
    ensure(num == t * u - 3 and den == t + u + 3, "G(t,t') = (tt'-3)/(t+t'+3)")
    conic = fgl.conic_fgl(R, Fraction(3), Fraction(3), 8)
    ensure(nd.fgl_at_infinity.F == conic.F, "law at infinity is (x+y+3xy)/(1-3xy)")
    return "node (-1,1); t = (y-1)/(x+1); G(t,t') = (tt'-3)/(t+t'+3); conic law at infinity"


@check("ell.node-tate")
def _node_tate(cfg, rng):
    E = elliptic.curve(QQ, QQ.one(), QQ.zero(), QQ.zero(), QQ.zero(), QQ.zero())
    nd = elliptic.node_uniformization(E, N=8)
    ensure(nd.node == (Fraction(0), Fraction(0)), "node at origin")
    ensure(nd.law.b == 1 and nd.law.c == 0, "split multiplicative parameters")
    Fz = fgl.fgl_from_curve(E, 8)
    res = fgl.find_iso(nd.fgl_at_infinity, Fz, "linear-unit", N=7,
                       unit_candidates=[QQ.one(), QQ.neg(QQ.one())])
    ensure(isinstance(res, fgl.IsoResult), "node law not isomorphic to the z-coordinate law")
    return "y^2+xy=x^3: node (0,0), law x+y+xy, linear-unit isomorphic to the formal group"


@check("ell.node-beta")
def _node_beta(cfg, rng):
    P = PolyRing(QQ, ("beta",), laurent=("beta",))
    beta = P.gen("beta")
    E = elliptic.gamma1_3_curve(P, beta, P.zero())
    nd = elliptic.node_uniformization(E, N=8)
    ensure(nd.node == (P.zero(), P.zero()), "node at origin")
    ensure(nd.law.b == beta and nd.law.c.is_zero(), "multiplicative with parameter beta")
    return "y^2 + beta xy = x^3: node (0,0) and multiplicative law with parameter beta"


@check("ell.chart-v-j")
def _chart_v_j(cfg, rng):
    # j^-1 on the chart A = 1: b^3 (1 - 27b) / (1 - 24b)^3, constant term 0
    N = max(8, cfg.q_terms // 2)
    ctx = SeriesCtx(QQ, ("b",), N)
    b = ctx.gen("b")
    num = (b ** 3) * (ctx.one() - b.scale(Fraction(27)))
    den = (ctx.one() - b.scale(Fraction(24)))
    jinv = num * (den * den * den).inverse()
    ensure(QQ.is_zero(jinv.constant_term()), "constant term")
    ensure(QQ.is_zero(jinv.ucoeff(1)) and QQ.is_zero(jinv.ucoeff(2)), "order 3")
    ensure(jinv.ucoeff(3) == 1, "leading coefficient")
    # cross-check against the invariants of y^2+xy+by=x^3 over Q[[b]]
    SR = SeriesRing(QQ, "b", N)
    E = elliptic.gamma1_3_curve(SR, SR.one(), SR.gen())
    inv = elliptic.invariants(E)
    lhs = inv.disc * (inv.c4 * inv.c4 * inv.c4).inverse()
    ensure(lhs == jinv, "series division oracle")
    return "j^-1 on chart A=1 equals b^3(1-27b)/(1-24b)^3, a series with zero constant term"


# ---------------------------------------------------------------- fgl -------

@check("fgl.conic-expansion")
def _conic_expansion(cfg, rng):
    F = fgl.conic_fgl(ZZ, 3, 3, 6)
    ensure(F.coefficient(1, 1) == 3 and F.coefficient(2, 1) == 3
           and F.coefficient(1, 2) == 3 and F.coefficient(2, 2) == 9, "low terms")
    ensure(fgl.conic_discriminant(ZZ, 3, 3) == -3, "discriminant -3")
    Fa = PolyRing(ZZ, ("a",))
    a = Fa.gen("a")
    M = fgl.conic_fgl(Fa, Fa.one() - a, -a, 6)
    fgl.validate_fgl(M.F)
    ensure(M.coefficient(1, 1) == Fa.one() - a, "second conic form")
    ensure(fgl.additive_fgl(ZZ, 6).coefficient(1, 1) == 0, "additive degenerate case")
    return "(x+y+3xy)/(1-3xy) = x+y+3xy+3x^2y+3xy^2+...; disc(3,3) = -3; "\
           "(x+y+(1-a)xy)/(1+axy) builds and validates"


@check("fgl.two-series")
def _two_series(cfg, rng):
    Fm = fgl.multiplicative_fgl(ZZ, 1, 8)
    two = fgl.m_series(Fm, 2)
    ensure([two.ucoeff(i) for i in range(4)] == [0, 2, 1, 0], "[2](x) = 2x + x^2")
    ensure(fgl.height_mod_p(fgl.multiplicative_fgl(GF(2), 1, 8), 2) == 1, "height 1")
    F4 = GF(4)
    C = elliptic.curve(F4, F4.zero(), F4.zero(), F4.one(), F4.zero(), F4.zero())
    ensure(fgl.height_mod_p(fgl.fgl_from_curve(C, 6), 2) == 2, "supersingular height 2")
    P2 = PolyRing(PrimeField(2), ("b",))
    Ef = elliptic.gamma1_3_curve(P2, P2.one(), P2.gen("b"))
    ensure(fgl.height_mod_p(fgl.fgl_from_curve(Ef, 6), 2) == 1, "chart height 1")
    return "[2] of the multiplicative law is 2x+x^2; heights: multiplicative 1, "\
           "y^2+y=x^3 over GF(4) is 2, ordinary chart is 1"


@check("fgl.log-examples")
def _log_examples(cfg, rng):
    ensure(fgl.fgl_log(fgl.additive_fgl(QQ, 6)).ucoeff(2) == 0, "additive log is x")
    l = fgl.fgl_log(fgl.conic_fgl(QQ, -1, 0, 6))
    ensure([l.ucoeff(i) for i in range(1, 5)]
           == [1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)], "log of x+y-xy")
    Pu = PolyRing(QQ, ("u",))
    u = Pu.gen("u")
    lu = fgl.fgl_log(fgl.conic_fgl(Pu, u, Pu.zero(), 6))
    ensure(lu.ucoeff(2) == u * Fraction(-1, 2) and lu.ucoeff(3) == (u * u) * Fraction(1, 3),
           "log of x+y+uxy")
    e = fgl.fgl_exp(fgl.conic_fgl(QQ, -1, 0, 8))
    chk = fgl.fgl_log(fgl.conic_fgl(QQ, -1, 0, 8)).compose({"x": e.rename(("x",))})
    ensure(chk == SeriesCtx(QQ, ("x",), 8).gen("x"), "exp inverts log")
    return "log(x+y-xy) = x + x^2/2 + x^3/3 + ...; log(x+y+uxy) alternates; exp o log = id"


@check("fgl.hazewinkel-family")
def _hazewinkel_family(cfg, rng):
    # hazewinkel_generators(F, 2, 2) reads the law below degree 2^2 + 1
    F = fgl.universal_family_fgl(2 ** 2)
    A, B = F.ring.gen("A"), F.ring.gen("B")
    data = fgl.hazewinkel_generators(F, 2, 2)
    ensure(data.v[0] == A, f"v1 = {data.v[0]} != A")
    ensure(data.v[1] == B, f"v2 = {data.v[1]} != B")
    r1 = bp.reduce_poly_modulo(data.v[0], 2)
    ensure(r1 == bp.reduce_poly_modulo(A, 2), "v1 = A mod 2")
    r2 = bp.reduce_poly_modulo(data.v[1], 2, kill_gens=("A",))
    ensure(r2 == bp.reduce_poly_modulo(B, 2, kill_gens=("A",)), "v2 = B mod (2, A)")
    return "family law: v1 = A and v2 = B exactly (units both 1), hence the congruences"


@check("fgl.hazewinkel-multiplicative")
def _hazewinkel_mult(cfg, rng):
    Pz = PolyRing(ZZ, ("u",))
    u = Pz.gen("u")
    d = fgl.hazewinkel_generators(fgl.conic_fgl(Pz, -u, Pz.zero(), 9), 2, 2)
    ensure(d.v[0] == u and d.v[1].is_zero(), "x+y-uxy has v1 = u, v2 = 0")
    d2 = fgl.hazewinkel_generators(fgl.conic_fgl(Pz, u, Pz.zero(), 9), 2, 2)
    ensure(d2.v[0] == -u and d2.v[1].is_zero(), "x+y+uxy has v1 = -u, v2 = 0")
    return "multiplicative laws have v2 = 0 exactly; v1 is the (signed) parameter"


@check("fgl.tate-v2-zero")
def _tate_v2(cfg, rng):
    F = fgl.universal_family_fgl(9)
    data = fgl.hazewinkel_generators(F, 2, 2)
    Pb = PolyRing(ZZ, ("beta",))
    sub = {"__ring__": Pb, "A": Pb.gen("beta"), "B": Pb.zero(),
           "__coeff__": lambda c: Pb.from_int(int(c))}
    ensure(data.v[1].substitute(sub).is_zero(), "v2 -> 0 at the cusp")
    ensure(data.v[0].substitute(sub) == Pb.gen("beta"), "v1 -> beta at the cusp")
    return "specializing A -> beta, B -> 0 sends v2 to zero and v1 to beta"


@check("fgl.hazewinkel-naturality")
def _hazewinkel_naturality(cfg, rng):
    F = fgl.universal_family_fgl(9)
    P = F.ring
    A, B = P.gen("A"), P.gen("B")
    base = fgl.hazewinkel_generators(F, 2, 2)
    ctx1 = SeriesCtx(P, ("t",), 9)
    for trial in range(3):
        terms = {(1,): P.one()}
        for d in range(2, 5):
            coeff = P.zero()
            for (i, j) in [(d - 1 - 3 * j, j) for j in range((d - 1) // 3 + 1)]:
                if i < 0:
                    continue
                c = rng.randint(-2, 2)
                if c:
                    coeff = coeff + P.monomial((i, j), ZZ.from_int(c))
            if not coeff.is_zero():
                terms[(d,)] = coeff
        phi = ctx1.series(terms)
        G = fgl.strict_apply(F, phi)
        data = fgl.hazewinkel_generators(G, 2, 2)
        ensure(bp.reduce_poly_modulo(data.v[0], 2) == bp.reduce_poly_modulo(A, 2),
               "v1 mod 2 invariant")
        ensure(bp.reduce_poly_modulo(data.v[1], 2, kill_gens=("A",))
               == bp.reduce_poly_modulo(B, 2, kill_gens=("A",)), "v2 mod (2, A) invariant")
    return "v1 mod 2 and v2 mod (2, v1) unchanged by random strict isomorphisms"


@check("fgl.iso-omega")
def _iso_omega(cfg, rng):
    W = omega_ring()
    N = max(12, cfg.series_prec)
    Fc = fgl.conic_fgl(W, W.from_int(3), W.from_int(3), N + 1)
    Fm = fgl.conic_fgl(W, sqrt_minus3(W), W.zero(), N + 1)
    res = fgl.find_iso(Fc, Fm, "strict", N=N)
    ensure(isinstance(res, fgl.IsoResult), "no strict isomorphism found")
    back = fgl.find_iso(Fm, Fc, "strict", N=N)
    ensure(isinstance(back, fgl.IsoResult), "no inverse isomorphism found")
    comp = back.phi.compose({"t": res.phi})
    ensure(comp == SeriesCtx(W, ("t",), N + 1).gen("t"), "round trip is the identity")
    return f"conic(3,3) strictly isomorphic to x+y+sqrt(-3)xy over Z[1/3][w] to degree {N}"


@check("fgl.noniso-z13")
def _noniso_z13(cfg, rng):
    # Over Z[1/3], F_u = x + y + uxy is u^-1 F_1(ux, uy), so phi: Fc -> F_u
    # with phi'(0) = c holds to degree d exactly when u phi: Fc -> F_1 with
    # linear coefficient uc does; each c_d is unique (Z[1/3] is torsion-free),
    # so both fail at the same degree, and one search over the products uc
    # stands for every pair (u, c).
    Z13 = Z_inverted(3)
    Fc = fgl.conic_fgl(Z13, Fraction(3), Fraction(3), 7)
    F1 = fgl.conic_fgl(Z13, Fraction(1), Fraction(0), 7)
    cands = Z13.unit_candidates(3)
    for u in cands:
        Fu = fgl.conic_fgl(Z13, u, Fraction(0), 7)
        ensure(Fu.prec == F1.prec and Fu.F.terms == {
            e: u ** (sum(e) - 1) * c for e, c in F1.F.terms.items()},
            f"x+y+uxy is not u^-1 F_1(ux, uy) at u = {u}")
    degrees = set(_noniso_degrees(Fc, F1, cands).values())
    ensure(len(degrees) == 1, f"candidates fail at degrees {sorted(degrees)}")
    return ("no linear-unit isomorphism to any x+y+uxy with u in +-3^k (|k|<=3); "
            f"first unsolvable degree is {degrees.pop()} for every candidate")


def _noniso_degrees(Fc, F1, cands) -> dict:
    """{(u, c): the degree where phi: Fc -> x + y + uxy with phi'(0) = c
    fails}, for u and c in cands, read from one linear-unit find_iso(Fc, F1)
    over the distinct products uc (the rescaling in _noniso_z13)."""
    R = F1.ring
    products = list(dict.fromkeys(R.mul(u, c) for u in cands for c in cands))
    r = fgl.find_iso(Fc, F1, "linear-unit", N=6, unit_candidates=products)
    if isinstance(r, fgl.IsoResult):
        raise CheckFailure(f"unexpected isomorphism with linear coefficient {R.render(r.linear)}")
    return {(u, c): r.details[R.render(R.mul(u, c))] for u in cands for c in cands}


@check("fgl.canonical-subgroup")
def _canonical_subgroup(cfg, rng):
    Z8 = ModularIntegers(8)
    K = fgl.canonical_subgroup(fgl.multiplicative_fgl(Z8, 1, 8))
    ensure(K.alpha == 2, "kernel x(x+2) over Z/8")
    k = max(2, cfg.two_adic_prec)
    Fk = fgl.two_adic_family_fgl(k, 6, 9)
    Kk = fgl.canonical_subgroup(Fk)
    alpha = Kk.alpha
    ensure(all(c % 2 == 0 for c in alpha.terms.values()), "alpha divisible by 2")
    ensure((alpha.terms.get((0,), 0) // 2) % 2 == 1, "alpha/2 is a unit series")
    try:
        fgl.canonical_subgroup(fgl.additive_fgl(Z8, 8))
        raise CheckFailure("additive law accepted")
    except NotOrdinary:
        pass
    return f"kernel x(x+2) for the multiplicative law; alpha = 2*(unit) for the family "\
           f"over Z/{2**k}[[b]]; additive law rejected as not ordinary"


@check("fgl.quotient-mu2")
def _quotient_mu2(cfg, rng):
    Z8 = ModularIntegers(8)
    Fm = fgl.multiplicative_fgl(Z8, 1, 8)
    K = fgl.canonical_subgroup(Fm)
    res = fgl.quotient_by_subgroup(Fm, K)
    ensure(res.fgl.coefficient(1, 1) == 7, "quotient is x+y-xy type")
    iso = fgl.find_iso(res.fgl, fgl.multiplicative_fgl(Z8, 7, 8), "strict", N=6)
    ensure(isinstance(iso, fgl.IsoResult), "quotient not multiplicative-type")
    try:
        fgl.quotient_by_subgroup(Fm, fgl.KernelPolynomial(Z8.zero()))
        raise CheckFailure("trivial kernel x(x+0) accepted")
    except InvalidKernel:
        pass
    return "multiplicative/mu_2 is multiplicative-type again; kernel x(x+0) rejected"


@check("fgl.quotient-frobenius")
def _quotient_frobenius(cfg, rng):
    F1 = fgl.two_adic_family_fgl(1, 8, 9)
    K1 = fgl.canonical_subgroup(F1)
    ensure(F1.ring.is_zero(K1.alpha), "kernel is x^2 over F_2[[b]]")
    q = fgl.quotient_by_subgroup(F1, K1)
    R = F1.ring
    # the twist at the quotient's x-precision, so its top degree is compared
    twist = fgl.family_fgl_at(R, R.mul(R.gen(), R.gen()), 9)
    ensure(q.fgl.F == twist.F, "quotient law is not the b -> b^2 twist")
    f = q.isogeny
    ensure(f.ucoeff(1).is_zero() and R.eq(f.ucoeff(2), R.one()), "isogeny is x^2 mod 2")
    return "family(A=1)/canonical subgroup over F_2[[b]] equals the b -> b^2 base change "\
           "to b-precision 8; the isogeny reduces to the Frobenius x^2"


@check("fgl.isogeny-identity")
def _isogeny_identity(cfg, rng):
    k = max(2, cfg.two_adic_prec)
    F = fgl.two_adic_family_fgl(k, 5, 7)
    K = fgl.canonical_subgroup(F)
    res = fgl.quotient_by_subgroup(F, K)
    ensure(fgl.hom_residual(res.isogeny, F.F, res.fgl.F).is_zero(),
           "f(F(x,y)) != F'(f(x), f(y))")
    return f"f(F(x,y)) = F'(f(x), f(y)) re-verified over Z/{2**k}[[b]]"


@check("fgl.recognize-family")
def _recognize_family(cfg, rng):
    k = max(2, min(cfg.two_adic_prec, 3))
    F = fgl.two_adic_family_fgl(k, 6, 8)
    q = fgl.quotient_by_subgroup(F, fgl.canonical_subgroup(F))
    rec = fgl.recognize_in_family(q.fgl)
    R = q.fgl.ring
    bb = R.mul(R.gen(), R.gen())
    diff = R.sub(rec.b_param, bb)
    ensure(all(c % 2 == 0 for c in diff.terms.values()), "b' = b^2 mod 2")
    th = fgl.theta_defect(R.gen(), rec.b_param, R)
    return (f"b' recognized over Z/{2**k}[[b]] with b' = b^2 mod 2; "
            f"theta(b) has {len(th.terms)} nonzero coefficients mod 2^{k-1}; "
            "re-substitution residual vanishes at the full modulus")


@check("fgl.theta-defect")
def _theta_defect(cfg, rng):
    ensure(fgl.theta_defect(2, 4) == 0, "psi^2(x) = x^2 gives theta = 0")
    ensure(fgl.theta_defect(3, 3) == -3, "theta(3) = (3 - 9)/2 = -3 for psi^2 = id")
    from .errors import NotAFrobeniusLift
    try:
        fgl.theta_defect(1, 2)
        raise CheckFailure("odd defect accepted")
    except NotAFrobeniusLift:
        pass
    return "theta(x) = (psi^2(x) - x^2)/2 exactly; non-divisibility rejected"


@check("fgl.validation-random")
def _validation_random(cfg, rng):
    for _ in range(6):
        b = rng.randint(-4, 4)
        c = rng.randint(-4, 4)
        fgl.validate_fgl(fgl.conic_fgl(ZZ, b, c, 8).F)
    # degree 9 is the largest a family-law image reads in a default run
    U = fgl.universal_family_fgl(9)
    fgl.validate_fgl(U.F)
    return "random conic laws and the family law pass unit/commutativity/associativity"


# ---------------------------------------------------------------- bp ---------

@check("bp.right-unit")
def _right_unit(cfg, rng):
    tab = bp.right_unit(2, 3)
    P = tab.ring
    v1, t1, v2 = P.gen("v1"), P.gen("t1"), P.gen("v2")
    ensure(tab.eta_v[1] == v1 + 2 * t1, "eta(v1) = v1 + 2 t1")
    ensure(bp.reduce_poly_modulo(tab.eta_v[1], 2) == bp.reduce_poly_modulo(v1, 2),
           "eta(v1) = v1 mod 2")
    ensure(bp.reduce_poly_modulo(tab.eta_v[2], 2, kill_gens=("v1",))
           == bp.reduce_poly_modulo(v2, 2, kill_gens=("v1",)), "eta(v2) = v2 mod (2, v1)")
    ensure(bp.reduce_poly_modulo(tab.eta_v[3], 2, kill_gens=("v1", "v2"))
           == bp.reduce_poly_modulo(P.gen("v3"), 2, kill_gens=("v1", "v2")),
           "eta(v3) = v3 mod (2, v1, v2)")
    sq = tab.eta_v[1] * tab.eta_v[1]
    ensure(sq == (v1 + 2 * t1) * (v1 + 2 * t1), "eta is multiplicative on v1^2")
    return "eta(v1) = v1 + 2t1; eta(v_k) = v_k mod (2, v_1, ..., v_(k-1)) for k <= 3; "\
           "integer coefficients; defining recursion re-verified"


@check("bp.regular-sequence")
def _regular_sequence(cfg, rng):
    N = min(20, cfg.max_degree)
    seq, module, P = bp.bp2_shadow_sequence(N)
    rep = bp.regular_sequence_check(seq, module, N)
    ensure(rep.regular, f"failures: {rep.failures}")
    Pz = PolyRing(ZZ, ("v1",), (2,))
    rep2 = bp.regular_sequence_check(
        [bp.poly_element(Pz.gen("v1")), bp.poly_element(Pz.gen("v1"))],
        bp.GradedModule(Pz), 8)
    ensure(not rep2.regular and rep2.failures[0][0] == 1, "repeated v1 must fail at step 2")
    Pf = PolyRing(PrimeField(2), ("t1",), (2,))
    rep3 = bp.regular_sequence_check([bp.scalar_element(Pf, 2)], bp.GradedModule(Pf), 8)
    ensure(not rep3.regular, "2 acts as zero on F_2[t1]")
    return f"(2, eta v1, eta v2) regular on Z[v1,v2][t] through degree {N}; "\
           "(v1, v1) fails with witness 1; (2) on F_2[t1] fails"


@check("bp.koszul-regular")
def _koszul_regular(cfg, rng):
    N = min(20, cfg.max_degree)
    seq, module, P = bp.bp2_shadow_sequence(N)
    tor = bp.koszul_tor(seq, module, N)
    bad = [(s, d) for (s, d) in tor.entries if s > 0 and not tor.is_zero(s, d)]
    ensure(not bad, f"nonzero higher Tor at {bad}")
    twts = [w for g, w in zip(P.gens, P.weights) if g.startswith("t")]
    expected = bp.fp_poly_dims(twts, N)
    got = [tor.dim(0, d) for d in range(N + 1)]
    ensure(got == expected, "Tor_0 dims differ from the F_2[t] monomial count")
    return f"higher Koszul homology vanishes through degree {N}; Tor_0 = F_2[t] "\
           "(independent monomial count agrees)"


@check("bp.koszul-exterior")
def _koszul_exterior(cfg, rng):
    N = 16
    F2 = PrimeField(2)
    Pt = PolyRing(F2, ("t1", "t2", "t3"), (2, 6, 14))
    modt = bp.GradedModule(Pt)
    seq0 = [bp.SequenceElement(d, Pt.zero()) for d in (0, 2, 6, 14)]   # p, v1, v2, v3
    tor = bp.koszul_tor(seq0, modt, N)
    pattern = bp.exterior_pattern_dims([2, 6, 14], [1, 3, 7, 15], N)
    ensure(tor.total_dims(N) == pattern, "exterior pattern mismatch")
    tor_e = bp.koszul_tor([], modt, 10)
    ensure([tor_e.dim(0, d) for d in range(11)] == bp.fp_poly_dims([2, 6, 14], 10),
           "empty sequence should return the module")
    return f"zero action of (2, v1, v2, v3) on F_2[t]: homology realizes F_2[t] (x) "\
           f"Lambda[x_0..x_3] with |x_k| = 2^(k+1)-1, through total degree {N}"


@check("bp.tor-degeneration")
def _tor_degeneration(cfg, rng):
    r1 = bp.tor_degeneration_identity(1, 2, 24)
    ensure(r1["truncated_equal"] and r1["full_equal"], "n=1, p=2 mismatch")
    r2 = bp.tor_degeneration_identity(2, 2, min(32, max(24, cfg.max_degree)))
    ensure(r2["truncated_equal"] and r2["full_equal"], "n=2, p=2 mismatch")
    r3 = bp.tor_degeneration_identity(1, 3, 30)
    ensure(r3["truncated_equal"] and r3["full_equal"], "n=1, p=3 mismatch")
    return "F_p[t_i] (x) Lambda[x_k : k > n] matches B_*(n) degreewise, and the full "\
           "pattern (with the degree-1 class from p) matches the dual Steenrod algebra; "\
           "checked for (n,p) in {(1,2),(2,2),(1,3)}"


@check("bp.connectivity-evenness")
def _connectivity(cfg, rng):
    for n in (1, 2):
        ensure(steenrod.evenness_below(n, 2 ** (n + 2) + 4),
               f"odd-degree class below 2^{n + 2} - 1 for n = {n}")
    return "B_*(n) and the quotient module have only even-degree classes strictly below "\
           "2^(n+2) - 1, for n = 1, 2"


# ---------------------------------------------------------------- steenrod ---

@check("st.basis-dims")
def _st_basis(cfg, rng):
    N = max(48, cfg.max_degree)
    ensure(steenrod.basis(0) == ((),), "degree 0")
    ensure(steenrod.basis(3) == ((0, 1), (3,)), "degree 3 basis")
    ensure(len(steenrod.basis(7)) == 4, "degree 7 dimension")
    ensure(steenrod.dims_table(N) == steenrod.poincare_product_dims(N),
           "enumeration vs Poincare product")
    return f"Milnor monomial counts match the product formula through degree {N}"


@check("st.product")
def _st_product(cfg, rng):
    ensure(steenrod.milnor_product(steenrod.sq(1), steenrod.sq(1)) == frozenset(),
           "Sq(1) Sq(1) = 0")
    Q0, Q1 = steenrod.milnor_primitive(0), steenrod.milnor_primitive(1)
    ensure(steenrod.milnor_product(Q0, Q1) == steenrod.milnor_product(Q1, Q0),
           "Q0 and Q1 commute")
    ensure(steenrod.milnor_product(steenrod.UNIT, Q1) == Q1, "unit")
    pool = [m for d in range(1, 12) for m in steenrod.basis(d)]
    for _ in range(40):
        a, b, c = (frozenset({rng.choice(pool)}) for _ in range(3))
        lhs = steenrod.milnor_product(steenrod.milnor_product(a, b), c)
        rhs = steenrod.milnor_product(a, steenrod.milnor_product(b, c))
        ensure(lhs == rhs, f"associativity fails at {a}, {b}, {c}")
    return "Sq(1)^2 = 0; Q0 Q1 + Q1 Q0 = 0; unital; associative on a random sample"


@check("st.product-oracle")
def _st_oracle(cfg, rng):
    polys = [frozenset({(1, 1, 1)}), frozenset({(2, 1, 0)}),
             frozenset({(1, 0, 0), (0, 1, 1)})]
    pool = [m for d in range(1, 8) for m in steenrod.basis(d)]
    for _ in range(20):
        r, s = rng.choice(pool), rng.choice(pool)
        if steenrod.mono_degree(r) + steenrod.mono_degree(s) > 10:
            continue
        prod = steenrod.milnor_product_mono(r, s)
        for tp in polys:
            via_prod = steenrod.element_on_poly(prod, tp)
            via_comp = steenrod.milnor_on_poly(r, steenrod.milnor_on_poly(s, tp))
            ensure(via_prod == via_comp, f"operator oracle fails at {r} * {s}")
    for a, b in [(1, 1), (2, 2), (3, 2), (2, 3), (5, 2), (4, 4)]:
        direct = steenrod.word_on_poly((a, b), polys[0])
        via_adem = frozenset()
        for w in steenrod.adem_word_normalize((a, b)):
            via_adem ^= steenrod.word_on_poly(w, polys[0])
        ensure(direct == via_adem, f"Adem straightening fails at Sq^{a} Sq^{b}")
        mp = steenrod.milnor_product(steenrod.sq(a), steenrod.sq(b))
        ensure(steenrod.element_on_poly(mp, polys[0]) == direct,
               f"Milnor vs Adem mismatch at Sq^{a} Sq^{b}")
    return "Milnor products agree with composed operator actions and with the "\
           "Adem-relation admissible-word oracle on sampled products"


@check("st.milnor-primitives")
def _st_primitives(cfg, rng):
    for i in range(4):
        Qi = steenrod.milnor_primitive(i)
        ensure(steenrod.milnor_product(Qi, Qi) == frozenset(), f"(Q{i})^2 != 0")
        ensure(steenrod.element_degree(Qi) == 2 ** (i + 1) - 1, f"deg Q{i}")
    ensure(steenrod.milnor_primitive(0) == steenrod.sq(1), "Q0 = Sq^1")
    comm = steenrod.milnor_product(steenrod.sq(2), steenrod.sq(1)) ^ \
        steenrod.milnor_product(steenrod.sq(1), steenrod.sq(2))
    ensure(comm == steenrod.milnor_primitive(1), "Q1 = [Sq^2, Sq^1]")
    return "Q^i square to zero, have degree 2^(i+1)-1; Q0 = Sq^1, Q1 = [Sq^2, Sq^1]"


@check("st.profiles")
def _st_profiles(cfg, rng):
    for kind, n in (("E", 0), ("E", 1), ("E", 2), ("A", 0), ("A", 1), ("A", 2)):
        pr = steenrod.Profile(kind, n)
        ensure(pr.closure_check(), f"{pr} not closed under the product")
    ensure(steenrod.Profile("E", 1).total_dim() == 4, "dim E(1) = 4")
    for n in range(4):
        ensure(steenrod.Profile("E", n).total_dim() == 2 ** (n + 1), f"dim E({n})")
    ensure(steenrod.Profile("A", 1).total_dim() == 8, "dim A(1) = 8")
    ensure(steenrod.Profile("A", 2).total_dim() == 64, "dim A(2) = 64")
    for n in (1, 2):
        An = steenrod.Profile("A", n)
        for r in steenrod.Profile("E", n).algebra_basis():
            ensure(An.member(r), f"E({n}) not inside A({n})")
    span = steenrod.exterior_generators_span(1)
    monos = set()
    for e in span:
        monos.update(e)
    ensure(monos == set(steenrod.Profile("E", 1).algebra_basis()),
           "Q-products span the E(1) profile basis")
    return "profiles are subalgebras; dims E(n) = 2^(n+1), A(1) = 8, A(2) = 64; "\
           "E(n) embeds in A(n); Q-products span E(n)"


@check("st.quotient-convolution")
def _st_convolution(cfg, rng):
    N = max(48, cfg.max_degree)
    for kind, n in (("E", 0), ("E", 1), ("E", 2), ("A", 1), ("A", 2)):
        pr = steenrod.Profile(kind, n)
        q = steenrod.quotient_dims_convolution(pr, N)
        pa = steenrod.dims_table(N)
        pb = pr.dims(N)
        back = [sum(q[i] * pb[d - i] for i in range(d + 1)) for d in range(N + 1)]
        ensure(back == pa, f"P_A != P_(A//B) * P_B for {pr}")
    return f"P_A = P_(A//B) x P_B holds exactly through degree {N} for "\
           "E(0), E(1), E(2), A(1), A(2); all quotient dimensions nonnegative"


@check("st.quotient-tables")
def _st_tables(cfg, rng):
    qE1 = steenrod.quotient_dims_convolution(steenrod.Profile("E", 1), 12)
    ensure(qE1[:8] == [1, 0, 1, 0, 1, 0, 2, 1], f"A//E(1) dims {qE1[:8]}")
    qA1 = steenrod.quotient_dims_convolution(steenrod.Profile("A", 1), 12)
    ensure(qA1[:5] == [1, 0, 0, 0, 1], f"A//A(1) dims {qA1[:5]}")
    qE0 = steenrod.quotient_dims_convolution(steenrod.Profile("E", 0), 8)
    ensure(qE0 == [1, 0, 1, 1, 1, 1, 2, 2, 2], f"A//E(0) dims {qE0}")
    for kind, n in (("E", 1), ("A", 1)):
        pr = steenrod.Profile(kind, n)
        qm = steenrod.QuotientModule(pr, 12)
        ensure(qm.dims() == steenrod.quotient_dims_convolution(pr, 12),
               f"coset table vs convolution for {pr}")
    return "A//E(1) = 1,0,1,0,1,0,2,1...; A//A(1) starts 1,0,0,0,1 (the ko pattern); "\
           "A//E(0) matches the integral Eilenberg-MacLane pattern; coset tables agree"


@check("st.square-commutes")
def _st_square(cfg, rng):
    N = 16
    res = steenrod.square_check(N)
    ensure(res["commutes"], f"square fails: {res['witness']}")
    ensure(res["linear"], f"A-linearity fails: {res['witness']}")
    ensure(res["cyclic"], f"cyclicity fails: {res['witness']}")
    return f"the 1 -> 1 square of A//E(1), A//E(2), A//A(1), A//A(2) commutes through "\
           f"degree {N}; maps are A-linear on Sq(2^i); all four modules are cyclic"


@check("st.bstar-dims")
def _st_bstar(cfg, rng):
    gens = steenrod.bstar_generator_degrees(2, 2, 32)
    ensure(gens == [2, 6, 14, 15, 31], f"B_*(2) generator degrees {gens}")
    b0 = steenrod.bstar_dims(0, 2, 8)
    ensure(b0 == [1, 0, 1, 1, 1, 1, 2, 2, 2], f"B_*(0) low dims {b0}")
    ensure(steenrod.bstar_dims(1, 2, 0) == [1], "degree 0")
    return "B_*(2) generator degrees are 2, 6, 14, 15, 31; B_*(0) low dims enumerated"


@check("st.duality-dims")
def _st_duality(cfg, rng):
    ensure(steenrod.duality_dims_check(1, 24), "n = 1 through degree 24")
    ensure(steenrod.duality_dims_check(2, max(32, cfg.max_degree)), "n = 2")
    ensure(steenrod.duality_dims_check(0, 16), "n = 0 through degree 16")
    return "dim (A//E(n))_d = dim B_*(n)_d for n = 0, 1, 2 through the stated ranges"


# ---------------------------------------------------------------- moduli -----

@check("mod.h0-ranks")
def _mod_h0(cfg, rng):
    ensure(moduli.h0_rank(0) == 1 and moduli.h0_rank(3) == 2 and moduli.h0_rank(-1) == 0,
           "examples")
    for n in range(-40, 41):
        want = 0 if n < 0 else n // 3 + 1
        ensure(moduli.h0_rank(n) == want, f"rank H^0({n})")
    return "H^0(O(n)) is free on A^i B^j with i + 3j = n, rank floor(n/3)+1 for n >= 0"


@check("mod.h1-ranks")
def _mod_h1(cfg, rng):
    ensure(moduli.h1_rank(-4) == 1 and moduli.h1_from_cech(-4) == [(-1, -1)],
           "duality class at n = -4")
    for n in range(-3, 41):
        ensure(moduli.h1_rank(n) == 0, f"H^1({n}) nonzero")
    ensure(moduli.h1_from_cech(-8) == [(-5, -1), (-2, -2)], "rank 2 at n = -8")
    for n in range(-40, 1):
        ensure(moduli.h1_rank(n) == len(moduli.h1_from_cech(n)), f"cech vs count at {n}")
    return "H^1(O(-4)) has rank 1 generated by [A^-1 B^-1]; H^1(O(n)) = 0 for n >= -3"


@check("mod.annihilation")
def _mod_ann(cfg, rng):
    rep = moduli.annihilation_check()
    ensure(rep["ok"], str(rep))
    return "A D and B D are coboundaries (preimages (0, -B^-1), (0, -A^-1)); D is not"


@check("mod.vanishing-euler")
def _mod_euler(cfg, rng):
    # H^s = 0 for s >= 2 needs no computation: the complex is C^0 -> C^1
    for n in range(-40, 41):
        ensure(moduli.euler_characteristic_check(n), f"Euler characteristic at {n}")
    ensure(all(moduli.h0_ring_check(m, n) for m in range(8) for n in range(8)),
           "H^0 ring structure")
    return "two-chart complex has no H^s for s >= 2; box-stabilized Euler counts match "\
           "h0 - h1 for -40 <= n <= 40; H^0 multiplication is polynomial multiplication"


@check("mod.chart-transition")
def _mod_chart(cfg, rng):
    rep = moduli.chart_transition_check(max(8, cfg.series_prec // 2))
    ensure(rep["ok"], str(rep))
    return "y^2+xy+a^-3 y = x^3 and y^2+axy+y = x^3 are identified by (x,y) -> "\
           "(a^2 x, a^3 y) (the overlap a^3 b = 1); formal groups carried by z -> az"


# ---------------------------------------------------------------- forms ------

@check("mf.eisenstein")
def _mf_eisenstein(cfg, rng):
    n = max(16, cfg.q_terms)
    e4, e6, delta = moduli.eisenstein(n)
    ensure(e4.coefficient((0,)) == 1 and e6.coefficient((0,)) == 1, "constant terms")
    ensure(e4.coefficient((1,)) == 240 and e6.coefficient((1,)) == -504, "first coefficients")
    ensure(e4.coefficient((3,)) == 240 * (1 + 27) and e6.coefficient((2,)) == -504 * 33,
           "sigma values")
    ensure([delta.coefficient((k,)) for k in range(1, 5)] == [1, -24, 252, -1472],
           "Delta expansion")
    return f"E4, E6 normalized; Delta = (E4^3 - E6^2)/1728 integral to {n} terms, "\
           "= q - 24q^2 + 252q^3 - 1472q^4 + ..."


@check("mf.j-inverse")
def _mf_jinv(cfg, rng):
    n = max(16, cfg.q_terms)
    _, _, _, q_j, j_inv = moduli.eisenstein_j(n)
    ensure(j_inv.coefficient((0,)) == 0, "constant term 0")
    ensure(j_inv.coefficient((1,)) == 1, "linear coefficient 1")
    ensure(j_inv.coefficient((2,)) == -744, "next coefficient -744")
    # j's q^-1, q^0 and q^1 terms are q*j's q^0, q^1 and q^2
    ensure([q_j.coefficient((k,)) for k in range(3)] == [1, 744, 196884], "j expansion")
    return "j^-1(q) = q - 744 q^2 + ...; j = q^-1 + 744 + 196884 q + ..."


@check("mf.psi-defect")
def _mf_psi(cfg, rng):
    q8 = SeriesCtx(ZZ, ("q",), 8)
    ensure(moduli.psi_operator(q8.gen("q")) == q8.series({(2,): 1}), "psi(q) = q^2")
    ensure(moduli.psi_defect(q8.from_int(7)).is_zero(), "defect of a constant")
    n = max(16, cfg.q_terms)
    qn = SeriesCtx(ZZ, ("q",), n)
    for _ in range(100):
        f = qn.series({(k,): rng.randint(-99, 99) for k in range(n)})
        ensure(moduli.psi_defect(f).coefficient((0,)) == 0, "nonzero constant term in a defect")
    return "psi(f)(q) = f(q^2); f(q^2) - f(q) has constant term 0 on 100 seeded series"


@check("kf.eigenspaces")
def _kf_eigen(cfg, rng):
    T = omega_ring()
    sigma = kforms.omega_conjugation(T)
    ensure(T.eq(sigma(sigma(T.gen())), T.gen()), "sigma is an involution")
    plus = kforms.eigenspace(T, sigma, +1)
    minus = kforms.eigenspace(T, sigma, -1)
    ensure(len(plus) == 1 and plus[0][1] == 0, "fixed ring is Z[1/3]")
    ensure(len(minus) == 1 and abs(minus[0][1]) == 2 * abs(minus[0][0]),
           "minus eigenspace generated by 1 + 2w = sqrt(-3)")
    return "T^(sigma=+1) = Z[1/3]; T^(sigma=-1) = Z[1/3] (1+2w) = Z[1/3] sqrt(-3)"


@check("kf.ku-tau")
def _kf_kutau(cfg, rng):
    T = omega_ring()
    sigma = kforms.omega_conjugation(T)
    rep = kforms.twisted_k_check(T, sigma, 16)
    ensure(rep["ok"], str(rep))
    return "degree-2k piece = Z[1/3] (sqrt(-3))^k for |2k| <= 16; products land in the "\
           "correct eigenspaces ((-1)^k sign rule)"


@check("kf.c2-cohomology")
def _kf_c2(cfg, rng):
    T = omega_ring()
    coh = kforms.c2_cohomology(T, kforms.omega_conjugation(T))
    ensure(coh["H1"] == (0, []) and coh["H2"] == (0, []), f"Galois case: {coh}")
    ensure(kforms.c2_cohomology_trivial_Z()["H2"] == (0, [2]), "Z trivial: H^2 = Z/2")
    ensure(kforms.c2_cohomology_F2_trivial()["H1"] == (0, [2]), "F2 trivial: H^1 = F2")
    return "H^1 = H^2 = 0 for the Galois conjugation on Z[1/3][w]; contrast cases "\
           "Z (H^2 = Z/2) and F_2 (H^1 = F_2) show the test has teeth"


@check("kf.cusp-restriction")
def _kf_cusp(cfg, rng):
    plus = kforms.cusp_restriction_check(+1)
    ensure(plus["found"], f"nodal substitution not matched: {plus}")
    minus = kforms.cusp_restriction_check(-1)
    ensure(not minus["found"] and not minus["sub_disc_zero"],
           "sign-flipped substitution unexpectedly matched")
    ensure(kforms.cusp_restriction_rescaled(1) and kforms.cusp_restriction_rescaled(2),
           "rescaled variants")
    return ("A -> sqrt(-3) beta with B = +(1/27) A^3 lands on y^2+3xy+y=x^3 via "
            "u = sqrt(-3) beta / 3; the opposite sign yields a smooth curve "
            "(discriminant -2/27 beta^12), so no transformation exists: "
            "sign sensitivity witnessed")


@check("kf.frobenius-obstruction")
def _kf_frob(cfg, rng):
    for p in (3, 5):
        rep = kforms.frobenius_lift_obstruction(p)
        ensure(rep["all_fail"], f"candidate lift survives at p = {p}")
        ensure(rep["contrast_Zp_identity_works"], f"Fermat contrast at p = {p}")
    return "no endomorphism of Z[x]/Phi_p reduces to the p-th power map mod p for "\
           "p = 3, 5 (witness: the cyclotomic generator); identity works on Z_p"


@check("kf.discriminant")
def _kf_disc(cfg, rng):
    ensure(kforms.discriminant_classification(Z_inverted(3), Fraction(3), Fraction(3))
           == "form", "(3,3) over Z[1/3]")
    ensure(kforms.discriminant_classification(ZZ, 3, 3) == "degenerate", "(3,3) over Z")
    ensure(kforms.discriminant_classification(ZZ, 1, 0) == "form", "(1,0) over Z")
    return "conic (b,c) is a multiplicative-group form iff b^2 - 4c is a unit"


def checks_for(suites) -> list[Check]:
    if "all" in suites:
        return sorted(REGISTRY, key=lambda c: c.id)
    return sorted([c for c in REGISTRY if c.suite in suites], key=lambda c: c.id)
