"""p-typical structure constants and the Tor degeneration bookkeeping.

Right units are solved from the Hazewinkel recursion together with
eta(ell_n) = sum ell_i t_j^(p^i); regular sequences and Koszul homology are
checked degreewise with exact linear algebra (bitmask rref over F_2, integer
lattices Smith-reduced 2-locally).  Degrees are topological throughout:
|v_i| = |t_i| = 2(p^i - 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import IntegralityFailure, TruncationError
from .linalg import (FieldOps, _FractionField, f2_in_span, f2_nullspace, f2_reduce,
                     f2_rref, int_kernel, p_local_structure, smith_normal_form,
                     solve_int_exact)
from .poly import Poly, PolyRing, monomials_of_weighted_degree
from .rings import PrimeField, QQ, ZZ
from .steenrod import bstar_dims, dims_table, dual_steenrod_dims_odd, exterior_pattern_dims


# -- right unit ---------------------------------------------------------------

def bp_ring(p: int, nv: int, nt: int, base=QQ) -> PolyRing:
    gens = tuple(f"v{i}" for i in range(1, nv + 1)) + tuple(f"t{i}" for i in range(1, nt + 1))
    weights = tuple(2 * (p ** i - 1) for i in range(1, nv + 1)) + \
        tuple(2 * (p ** i - 1) for i in range(1, nt + 1))
    return PolyRing(base, gens, weights)


def _log_coeffs(P: PolyRing, p: int, n: int) -> list[Poly]:
    """ell_0 = 1, ell_m = (sum_{i<m} ell_i v_{m-i}^(p^i)) / p (Hazewinkel)."""
    ells = [P.one()]
    pinv = Fraction(1, p)
    for m in range(1, n + 1):
        acc = P.zero()
        for i in range(m):
            acc = acc + ells[i] * (P.gen(f"v{m - i}") ** (p ** i))
        ells.append(acc * P.const(pinv))
    return ells


def _eta_log(P: PolyRing, ells: list[Poly], p: int, m: int) -> Poly:
    """eta_R(ell_m) = sum_{i+j=m} ell_i t_j^(p^i), t_0 = 1."""
    acc = P.zero()
    for i in range(m + 1):
        j = m - i
        tj = P.one() if j == 0 else P.gen(f"t{j}")
        acc = acc + ells[i] * (tj ** (p ** i))
    return acc


@dataclass
class RightUnitTable:
    p: int
    eta_v: dict          # k -> Poly over Z[v,t]
    ring: PolyRing


def right_unit(p: int, kmax: int) -> RightUnitTable:
    """eta_R(v_k) for k <= kmax, exact with integer coefficients."""
    if kmax > 3 and p == 2:
        raise TruncationError("desk bound: k <= 3 at p = 2")
    P = bp_ring(p, kmax, kmax)
    ells = _log_coeffs(P, p, kmax)
    eta_ells = [P.one()] + [_eta_log(P, ells, p, m) for m in range(1, kmax + 1)]
    eta_v = {}
    etas = [None]
    for m in range(1, kmax + 1):
        acc = eta_ells[m] * P.const(Fraction(p))
        for i in range(1, m):
            acc = acc - eta_ells[i] * (eta_v[m - i] ** (p ** i))
        eta_v[m] = acc
        etas.append(acc)
    # integrality and the defining recursion re-verified
    PZ = bp_ring(p, kmax, kmax, base=ZZ)
    out = {}
    for k, poly in eta_v.items():
        terms = {}
        for e, c in poly.terms.items():
            if c.denominator != 1:
                raise IntegralityFailure(f"eta(v_{k}) coefficient {c} not integral")
            terms[e] = int(c)
        out[k] = Poly(PZ, terms)
    for m in range(1, kmax + 1):
        lhs = eta_ells[m] * P.const(Fraction(p))
        rhs = P.zero()
        for i in range(m):
            rhs = rhs + eta_ells[i] * (eta_v[m - i] ** (p ** i))
        if not lhs == rhs:
            raise IntegralityFailure("right-unit recursion failed to verify")
    return RightUnitTable(p, out, PZ)


def reduce_poly_modulo(poly: Poly, p: int, kill_gens: tuple = ()) -> Poly:
    """Image modulo (p, kill_gens): coefficients mod p, named generators -> 0."""
    P = poly.pring
    F = PrimeField(p)
    target = PolyRing(F, P.gens, P.weights)
    idx = [P.gens.index(g) for g in kill_gens]
    out = {}
    for e, c in poly.terms.items():
        if any(e[i] for i in idx):
            continue
        v = int(c) % p
        if v:
            out[e] = v
    return Poly(target, out)


# -- graded modules and sequences ---------------------------------------------

@dataclass
class GradedModule:
    """Quotient of the free rank-1 module over a weighted polynomial ring."""
    pring: PolyRing
    relations: list = field(default_factory=list)

    def monomials(self, d: int):
        return monomials_of_weighted_degree(self.pring.weights, d)


@dataclass
class SequenceElement:
    name: str
    degree: int
    poly: Poly | None    # None encodes the scalar p acting as multiplication


def scalar_element(pring: PolyRing, n: int, name: str | None = None) -> SequenceElement:
    return SequenceElement(name or str(n), 0, pring.from_int(n))


def poly_element(poly: Poly, name: str) -> SequenceElement:
    d = poly.wdegree()
    if not poly.is_homogeneous():
        raise ValueError("sequence elements must be homogeneous")
    return SequenceElement(name, d if d is not None else 0, poly)


def _poly_int_coeff(c) -> int:
    if isinstance(c, Fraction):
        if c.denominator != 1:
            raise IntegralityFailure(f"{c} not an integer")
        return int(c)
    return int(c)


def _mult_matrix_int(pring: PolyRing, s: Poly, d: int):
    """Integer columns of multiplication by s: monomials_d -> monomials_(d+|s|)."""
    e = s.wdegree() or 0
    src = monomials_of_weighted_degree(pring.weights, d)
    dst = monomials_of_weighted_degree(pring.weights, d + e)
    dst_at = {m: i for i, m in enumerate(dst)}
    cols = []
    for m in src:
        vec = [0] * len(dst)
        for se, sc in s.terms.items():
            tgt = tuple(a + b for a, b in zip(m, se))
            vec[dst_at[tgt]] += _poly_int_coeff(sc)
        cols.append(vec)
    return cols, src, dst


def _span_columns_int(pring: PolyRing, gens: list[Poly], d: int):
    """Integer columns spanning (sum g*Lambda)_d inside the degree-d monomials."""
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
                tgt = tuple(a + b for a, b in zip(m, ge))
                vec[dst_at[tgt]] += _poly_int_coeff(gc)
            if any(vec):
                cols.append(vec)
    return cols, dst


@dataclass
class RegularityReport:
    regular: bool
    failures: list    # (step index, degree, witness monomial/scalar)


def regular_sequence_check(seq: list[SequenceElement], module: GradedModule,
                           N: int) -> RegularityReport:
    """For each prefix, multiplication by the next element is injective on the
    quotient so far, in every degree <= N."""
    pring = module.pring
    failures = []
    char = pring.base.char
    for step, elt in enumerate(seq):
        prefix = [e.poly for e in seq[:step]] + list(module.relations)
        s = elt.poly
        if _is_int_scalar(s):
            n = _scalar_value(s)
            if char and n % char == 0:
                failures.append((step, 0, "1 (scalar acts as zero)"))
                continue
            if char == 0:
                # torsion of the quotient lattice would be the kernel
                bad = _scalar_kernel_degree(pring, prefix, n, N)
                if bad is not None:
                    failures.append((step, bad[0], bad[1]))
                continue
        if char == 0 and any(_is_int_scalar(e.poly) for e in seq[:step]):
            bad = _poly_kernel_mod_p(pring, prefix, seq[:step], s, N)
            if bad is not None:
                failures.append((step, bad[0], bad[1]))
            continue
        bad = _poly_kernel_lattice(pring, prefix, s, N)
        if bad is not None:
            failures.append((step, bad[0], bad[1]))
    return RegularityReport(not failures, failures)


def _is_int_scalar(s: Poly) -> bool:
    return all(all(x == 0 for x in e) for e in s.terms)


def _scalar_value(s: Poly) -> int:
    if not s.terms:
        return 0
    return _poly_int_coeff(next(iter(s.terms.values())))


def _scalar_kernel_degree(pring, prefix, n, N):
    """Over Z coefficients: does *n have kernel on Lambda_d / prefix?  Happens
    iff the quotient has q-torsion for q | n: read off the Smith form."""
    for d in range(N + 1):
        cols, dst = _span_columns_int(pring, [g for g in prefix if g is not None], d)
        if not dst:
            continue
        if cols:
            diag = smith_normal_form([list(r) for r in zip(*cols)])
        else:
            diag = []
        for t in diag:
            if t != 0 and _shares_factor(t, n):
                return (d, f"torsion class of order {t} at degree {d}")
    return None


def _shares_factor(a: int, b: int) -> bool:
    from math import gcd
    return gcd(abs(a), abs(b)) > 1


def _poly_kernel_mod_p(pring, prefix, prior, s, N):
    """Steps after the scalar p: computations in F_p vector spaces via bitmask
    rref, which is F_2 arithmetic, so only p = 2 is supported."""
    p = 2
    for e in prior:
        if _is_int_scalar(e.poly):
            p = abs(_scalar_value(e.poly))
    if p != 2:
        raise ValueError(f"regularity after the scalar {p} needs F_{p} ranks; "
                         "bitmask elimination covers p = 2 only")
    e = s.wdegree() or 0
    for d in range(N + 1):
        src = monomials_of_weighted_degree(pring.weights, d)
        dst = monomials_of_weighted_degree(pring.weights, d + e)
        dst_at = {m: i for i, m in enumerate(dst)}
        src_at = {m: i for i, m in enumerate(src)}
        ideal_rows_d = _f2_span_rows(pring, prefix, d, src_at, p)
        ideal_rows_de = _f2_span_rows(pring, prefix, d + e, dst_at, p)
        bas_de, piv_de = f2_rref(ideal_rows_de)
        bas_d, piv_d = f2_rref(ideal_rows_d)
        # kernel of s on the quotient: vectors x with s*x in ideal, x not in ideal
        cols = []
        for m in src:
            vec = 0
            for se, sc in s.terms.items():
                if _poly_int_coeff(sc) % p == 0:
                    continue
                tgt = tuple(a + b for a, b in zip(m, se))
                vec ^= 1 << dst_at[tgt]
            cols.append(vec)
        reduced_cols = [f2_reduce(bas_de, piv_de, c) for c in cols]
        null = f2_nullspace(reduced_cols, len(src))
        for vec in null:
            if not f2_in_span(bas_d, piv_d, vec):
                mono = src[(vec & -vec).bit_length() - 1]
                return (d, f"class of {mono} at degree {d}")
    return None


def _f2_span_rows(pring, gens, d, index, p):
    rows = []
    for g in gens:
        if g is None:
            continue
        e = g.wdegree()
        if e is None:
            continue
        if _is_int_scalar(g):
            continue  # the scalar p is zero mod p
        if e > d:
            continue
        for m in monomials_of_weighted_degree(pring.weights, d - e):
            vec = 0
            for ge, gc in g.terms.items():
                if _poly_int_coeff(gc) % p == 0:
                    continue
                tgt = tuple(a + b for a, b in zip(m, ge))
                vec ^= 1 << index[tgt]
            if vec:
                rows.append(vec)
    return rows


def _poly_kernel_lattice(pring, prefix, s, N):
    """Char-0 lattice path: x with s*x in span(prefix) but x not in span."""
    e = s.wdegree() or 0
    gens = [g for g in prefix if g is not None]
    for d in range(N + 1):
        cols, src, dst = _mult_matrix_int(pring, s, d)
        span_cols, _ = _span_columns_int(pring, gens, d + e)
        ncols = len(cols) + len(span_cols)
        if not src:
            continue
        combined = cols + [[-x for x in col] for col in span_cols]
        ker = int_kernel(combined, ncols)
        span_d_cols, _ = _span_columns_int(pring, gens, d)
        for vec in ker:
            x = vec[:len(cols)]
            if not any(x):
                continue
            if solve_int_exact(span_d_cols, x) is None:
                nz = next(i for i, v in enumerate(x) if v)
                return (d, f"class of {src[nz]} at degree {d}")
    return None


# -- Koszul Tor ------------------------------------------------------------------

@dataclass
class TorTable:
    entries: dict      # (s, internal degree) -> (free rank, torsion exponents)
    seq_degrees: list

    def dim(self, s: int, d: int) -> int:
        free, tors = self.entries.get((s, d), (0, []))
        return free + len(tors)

    def is_zero(self, s: int, d: int) -> bool:
        return self.entries.get((s, d), (0, [])) == (0, [])

    def total_dims(self, N: int) -> list[int]:
        """F2-dimensions summed along total degree = internal + homological."""
        out = [0] * (N + 1)
        for (s, d), (free, tors) in self.entries.items():
            t = d + s
            if t <= N:
                out[t] += free + len(tors)
        return out


def koszul_tor(seq: list[SequenceElement], module: GradedModule, N: int) -> TorTable:
    """Koszul homology of the sequence acting on the module, degreewise, over
    Z (2-local reading) or F_2.  Over F_2, dim H_s = n_s - rk d_s - rk d_(s+1)
    with the ranks taken mod 2; other characteristics are not supported."""
    pring = module.pring
    if module.relations:
        raise ValueError("free modules only (present the quotient in the ring)")
    r = len(seq)
    degs = [e.degree for e in seq]
    char = pring.base.char
    if char not in (0, 2):
        raise ValueError(f"Koszul Tor over characteristic {char}: only Z and F_2 are supported")
    entries = {}
    from itertools import combinations
    subsets = {s: list(combinations(range(r), s)) for s in range(r + 1)}

    def chain_basis(s, d):
        out = []
        for S in subsets[s]:
            rem = d - sum(degs[i] for i in S)
            if rem < 0:
                continue
            for m in monomials_of_weighted_degree(pring.weights, rem):
                out.append((S, m))
        return out

    def diff_matrix_int(s, src, dst):
        """Integer columns of d_s: C_s -> C_(s-1) on the given chain bases."""
        dst_at = {b: i for i, b in enumerate(dst)}
        cols = []
        for (S, m) in src:
            vec = [0] * len(dst)
            for pos, i in enumerate(S):
                sgn = (-1) ** pos
                poly = seq[i].poly
                rest = tuple(x for x in S if x != i)
                for ge, gc in poly.terms.items():
                    tgt = tuple(a + b for a, b in zip(m, ge))
                    vec[dst_at[(rest, tgt)]] += sgn * _poly_int_coeff(gc)
            cols.append(vec)
        return cols

    fops = FieldOps(_FractionField())
    for d in range(N + 1):
        basis = [chain_basis(s, d) for s in range(r + 1)]
        # diffs[s] holds d_s in degree d, read both for the kernel at s and the
        # image at s - 1; d_0 = d_(r+1) = 0
        diffs = [[]] + [diff_matrix_int(s, basis[s], basis[s - 1])
                        for s in range(1, r + 1)] + [[]]
        if char:
            rk = [len(f2_rref([sum(1 << i for i, v in enumerate(col) if v % 2)
                               for col in cols])[0]) for cols in diffs]
            for s in range(r + 1):
                n_s = len(basis[s])
                if n_s:
                    entries[(s, d)] = (n_s - rk[s] - rk[s + 1], [])
            continue
        for s in range(r + 1):
            src = basis[s]
            if not src:
                continue
            if s > 0 and basis[s - 1]:
                ker = int_kernel(diffs[s], len(src))
            else:
                ker = [[1 if i == j else 0 for i in range(len(src))]
                       for j in range(len(src))]
            if not ker:
                entries[(s, d)] = (0, [])
                continue
            # express the image in the saturated kernel basis, then Smith-reduce
            rel = []
            if diffs[s + 1]:
                for coords in fops.solve_many(ker, diffs[s + 1]):
                    if coords is None or any(v.denominator != 1 for v in coords):
                        raise IntegralityFailure("image not contained in saturated kernel")
                    rel.append([int(v) for v in coords])
            diag = smith_normal_form(rel) if rel else []
            entries[(s, d)] = p_local_structure(diag, len(ker), 2)
    return TorTable(entries, degs)


def fp_poly_dims(weights: list[int], N: int) -> list[int]:
    """dims of F_p[t_i] by weighted-monomial count (independent of rref work)."""
    out = [0] * (N + 1)
    for d in range(N + 1):
        out[d] = len(monomials_of_weighted_degree(tuple(weights), d))
    return out


def bp2_shadow_sequence(N: int):
    """(2, eta v1, eta v2) acting on Z[v1, v2][t_i] with |t_i| <= N."""
    table = right_unit(2, 2)
    nt = 0
    while 2 * (2 ** (nt + 1) - 1) <= N:
        nt += 1
    P = bp_ring(2, 2, max(nt, 2), base=ZZ)
    module = GradedModule(P, [])

    def promote(poly):
        src = poly.pring
        out = {}
        for e, c in poly.terms.items():
            exp = [0] * P.n
            for i, g in enumerate(src.gens):
                if e[i]:
                    exp[P.gens.index(g)] = e[i]
            out[tuple(exp)] = c
        return Poly(P, out)

    seq = [scalar_element(P, 2, "p"),
           poly_element(promote(table.eta_v[1]), "eta_v1"),
           poly_element(promote(table.eta_v[2]), "eta_v2")]
    return seq, module, P


def tor_degeneration_identity(n: int, p: int, N: int):
    """Both dimension identities behind the collapse: the truncated pattern
    F_p[t] (X) Lambda[x_k : k > n] vs B_*(n), and the full pattern including
    the degree-1 class from p vs the whole dual Steenrod algebra.  The
    patterns are convolutions; at odd p the other sides are monomial counts
    (`steenrod.monomial_count_dims`) over the same degrees, so the two can
    disagree."""
    tw = []
    i = 1
    while 2 * (p ** i - 1) <= N:
        tw.append(2 * (p ** i - 1))
        i += 1
    ext_hi = []
    k = n + 1
    while 2 * p ** k - 1 <= N:
        ext_hi.append(2 * p ** k - 1)
        k += 1
    side_a = exterior_pattern_dims(tw, ext_hi, N)
    side_b = bstar_dims(n, p, N)
    ext_full = []
    k = 0
    while 2 * p ** k - 1 <= N:
        ext_full.append(2 * p ** k - 1)
        k += 1
    full_a = exterior_pattern_dims(tw, ext_full, N)
    full_b = dims_table(N) if p == 2 else dual_steenrod_dims_odd(p, N, tau_from=0)
    return {
        "truncated_equal": side_a == side_b,
        "full_equal": full_a == full_b,
        "truncated": (side_a, side_b),
        "full": (full_a, full_b),
    }
