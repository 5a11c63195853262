"""Weighted projective Cech cohomology for the (1,3)-weighted line bundles,
chart transition checks, and classical q-expansions.

The two-chart complex is C^0 = R[1/A] + R[1/B] -> C^1 = R[1/(AB)] with
differential (f, g) -> f - g; everything is monomial bookkeeping, so the
cohomology is computed degreewise by enumeration.  The duality class is
D = [A^-1 B^-1]."""

from __future__ import annotations

from .elliptic import (formal_group_of_curve, gamma1_3_curve, transform,
                       curves_equal)
from .errors import AlgebraError
from .poly import PolyRing
from .rings import ZZ, Z_local
from .series import Series, SeriesRing


def h0_basis(n: int) -> list[tuple[int, int]]:
    """Monomials A^i B^j with i + 3j = n, i, j >= 0."""
    out = []
    for j in range(max(n, 0) // 3 + 1):
        i = n - 3 * j
        if i >= 0:
            out.append((i, j))
    return out


def h1_basis(n: int) -> list[tuple[int, int]]:
    """Classes A^-i B^-j with i, j >= 1 and -i - 3j = n."""
    out = []
    m = -n
    if m <= 0:
        return out
    for j in range(1, m // 3 + 1):
        i = m - 3 * j
        if i >= 1:
            out.append((-i, -j))
    return out


def h0_rank(n: int) -> int:
    return len(h0_basis(n))


def h1_rank(n: int) -> int:
    return len(h1_basis(n))


def cech_c0_box(n: int, box: int) -> list:
    """Degree-n monomials of R[1/A] + R[1/B] with exponents in [-box, box]."""
    out = []
    for j in range(0, box + 1):           # A-inverted chart: j >= 0
        i = n - 3 * j
        if -box <= i <= box:
            out.append(("a", i, j))
    for i in range(0, box + 1):           # B-inverted chart: i >= 0
        if (n - i) % 3 == 0:
            j = (n - i) // 3
            if -box <= j <= box:
                out.append(("b", i, j))
    return out


def cech_c1_box(n: int, box: int) -> list:
    out = []
    for j in range(-box, box + 1):
        i = n - 3 * j
        if -box <= i <= box:
            out.append((i, j))
    return out


def h1_from_cech(n: int) -> list:
    """Cokernel basis of the differential truncated to exponents in
    [-(8 + |n|), 8 + |n|]: exactly the classes with both exponents negative
    (everything else is hit by one chart)."""
    box = 8 + abs(n)
    hit = set()
    for chart, i, j in cech_c0_box(n, box):
        hit.add((i, j))
    out = [m for m in cech_c1_box(n, box) if m not in hit]
    return sorted(out)


def euler_characteristic_check(n: int) -> bool:
    """Box-stabilized count: rank C^0 - rank C^1 equals h0 - h1, with
    exponents in [-(24 + |n|), 24 + |n|]."""
    box = 24 + abs(n)
    chi = len(cech_c0_box(n, box)) - len(cech_c1_box(n, box))
    return chi == h0_rank(n) - h1_rank(n)


def annihilation_check() -> dict:
    """A*D and B*D are coboundaries; D itself is not."""
    out = {}
    # A * (A^-1 B^-1) = B^-1 = d(0, -B^-1): the monomial lies in the B-chart
    out["A*D"] = (0, -1) not in set(h1_from_cech(-3))
    out["B*D"] = (-1, 0) not in set(h1_from_cech(-1))
    out["D_not_coboundary"] = (-1, -1) in set(h1_from_cech(-4))
    out["preimages"] = {"A*D": "(0, -B^-1)", "B*D": "(0, -A^-1)"}
    out["ok"] = out["A*D"] and out["B*D"] and out["D_not_coboundary"]
    return out


def h0_ring_check(m: int, n: int) -> bool:
    """Multiplication H^0(m) x H^0(n) -> H^0(m+n) is monomial multiplication."""
    prods = {(i1 + i2, j1 + j2)
             for (i1, j1) in h0_basis(m) for (i2, j2) in h0_basis(n)}
    return prods <= set(h0_basis(m + n))


def chart_transition_check(prec: int = 8) -> dict:
    """Over Z_(2)[a^(+-1)]: y^2 + xy + a^-3 y = x^3 and y^2 + a xy + y = x^3
    are related by (x, y) -> (u^2 x, u^3 y) with u = a (the overlap a^3 b = 1);
    the formal groups are carried to one another by z -> u z."""
    R = PolyRing(Z_local(2), ("a",), laurent=("a",))
    a = R.gen("a")
    E_v = gamma1_3_curve(R, R.one(), R.gen("a", -3))   # chart with b = a^-3
    E_w = gamma1_3_curve(R, a, R.one())
    moved = transform(E_w, a, R.zero(), R.zero(), R.zero())
    curves_match = curves_equal(moved, E_v)
    Fv = formal_group_of_curve(E_v, prec)
    Fw = formal_group_of_curve(E_w, prec)
    # conjugate: u^-1 * Fv(u z1, u z2) should equal Fw
    conj_terms = {}
    for (i, j), c in Fv.terms.items():
        conj_terms[(i, j)] = R.mul(c, R.gen("a", i + j - 1))
    conj = Series(Fw.ctx, conj_terms)
    fgl_match = conj == Fw
    return {"curves": curves_match, "fgl": fgl_match, "ok": curves_match and fgl_match}


# -- q-expansions -----------------------------------------------------------------

def _sigma(k: int, n: int) -> int:
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def eisenstein(nterms: int):
    """(E4, E6, Delta) as integer Series in q, exact below q^nterms.
    AlgebraError when E4^3 - E6^2 is not divisible by 1728."""
    if nterms < 2:
        raise AlgebraError("need at least two terms")
    Q = SeriesRing(ZZ, "q", nterms)
    e4 = Q.ctx.series({(0,): 1, **{(n,): 240 * _sigma(3, n) for n in range(1, nterms)}})
    e6 = Q.ctx.series({(0,): 1, **{(n,): -504 * _sigma(5, n) for n in range(1, nterms)}})
    delta = Q.divide(e4 ** 3 - e6 ** 2, Q.from_int(1728))
    if delta is None:
        raise AlgebraError("E4^3 - E6^2 is not divisible by 1728")
    return e4, e6, delta


def eisenstein_j(nterms: int):
    """(E4, E6, Delta, q*j, j^-1) as integer Series in q, exact.  E4, E6,
    Delta and j^-1 are known below q^nterms.  j = q^-1 + 744 + ... has a
    pole, so it is returned as the power series q*j = E4^3 * (Delta/q)^-1,
    known below q^(nterms - 1): j's own terms below q^(nterms - 2).
    AlgebraError as for eisenstein."""
    e4, e6, delta = eisenstein(nterms)
    e4_cubed = e4 ** 3
    # Delta = q + ..., so Delta/q is a unit known one degree less far
    delta_over_q = Series(delta.ctx.at_prec(nterms - 1),
                          {(k - 1,): c for (k,), c in delta.terms.items()})
    q_j = e4_cubed * delta_over_q.inverse()
    j_inv = delta * e4_cubed.inverse()
    return e4, e6, delta, q_j, j_inv


def psi_operator(f: Series) -> Series:
    """f(q) -> f(q^2), known below twice the precision of f."""
    return Series(f.ctx.at_prec(2 * f.prec), {(2 * k,): c for (k,), c in f.terms.items()})


def psi_defect(f: Series) -> Series:
    """f(q^2) - f(q); its constant term always vanishes."""
    return psi_operator(f) - f
