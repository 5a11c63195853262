"""p-typical structure constants and the Tor degeneration bookkeeping.

Right units are solved from the Hazewinkel recursion together with
eta(ell_n) = sum ell_i t_j^(p^i); regular sequences and Koszul homology are
checked degreewise with exact linear algebra.  The regularity test reads the
integer columns of multiplication by a homogeneous polynomial from one
builder (`_mult_columns`; an ideal's span concatenates its generators'
columns, F_2 bitmasks are the columns mod 2).  Each step reads the quotient
by its prefix over F_2 when the base has characteristic 2 or the prefix holds
the scalar 2, over Z otherwise, and refuses any other quotient ring, as the
Tor does.  Over Z the Tor reads ker/im through `linalg.lattice_homology`.
Degrees are topological throughout: |v_i| = |t_i| = 2(p^i - 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .convert import reduce_scalar
from .errors import IntegralityFailure, TruncationError
from .linalg import (f2_mask, f2_nullspace, f2_rank, f2_reduce, f2_rref, int_kernel,
                     lattice_homology, p_local_structure, smith_normal_form, solve_int_exact)
from .poly import Poly, PolyRing, monomials_of_weighted_degree
from .rings import PrimeField, QQ, ZZ
from .steenrod import (bstar_dims, dims_table, dual_steenrod_dims_odd, exterior_pattern_dims,
                       monomial_count_dims)


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
    for m in range(1, kmax + 1):
        acc = eta_ells[m] * P.const(Fraction(p))
        for i in range(1, m):
            acc = acc - eta_ells[i] * (eta_v[m - i] ** (p ** i))
        eta_v[m] = acc
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
    """Image modulo (p, kill_gens): named generators -> 0, each other
    coefficient reduced mod p by `convert.reduce_scalar` (a rational with
    denominator prime to p goes to its residue, any other raises
    IntegralityFailure)."""
    P = poly.pring
    idx = [P.gens.index(g) for g in kill_gens]
    kept = Poly(P, {e: c for e, c in poly.terms.items() if not any(e[i] for i in idx)})
    return reduce_scalar(kept, PolyRing(PrimeField(p), P.gens, P.weights))


# -- graded modules and sequences ---------------------------------------------

@dataclass
class GradedModule:
    """Quotient of the free rank-1 module over a weighted polynomial ring."""
    pring: PolyRing
    relations: list = field(default_factory=list)


@dataclass
class SequenceElement:
    name: str
    degree: int
    poly: Poly           # a scalar n is the constant polynomial n


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


@lru_cache(maxsize=None)
def _monomials(weights: tuple, d: int) -> tuple:
    """The degree-d monomials of a weighted polynomial ring, made once."""
    return tuple(monomials_of_weighted_degree(weights, d))


def _mult_columns(pring: PolyRing, s: Poly, d: int) -> list[list[int]]:
    """Integer columns of multiplication by the homogeneous s, from the
    degree-d monomials to those of degree d + |s|."""
    dst = _monomials(pring.weights, d + (s.wdegree() or 0))
    dst_at = {m: i for i, m in enumerate(dst)}
    terms = [(se, _poly_int_coeff(sc)) for se, sc in s.terms.items()]
    cols = []
    for m in _monomials(pring.weights, d):
        vec = [0] * len(dst)
        for se, c in terms:
            vec[dst_at[tuple(a + b for a, b in zip(m, se))]] += c
        cols.append(vec)
    return cols


def _span_columns(pring: PolyRing, gens: list[Poly], d: int) -> list[list[int]]:
    """Nonzero integer columns spanning (sum g Lambda)_d in the degree-d monomials."""
    cols = []
    for g in gens:
        e = g.wdegree() or 0
        if e <= d:
            cols += [c for c in _mult_columns(pring, g, d - e) if any(c)]
    return cols


@dataclass
class RegularityReport:
    regular: bool
    failures: list    # (step index, degree, witness monomial/scalar)


def regular_sequence_check(seq: list[SequenceElement], module: GradedModule,
                           N: int) -> RegularityReport:
    """For each prefix, multiplication by the next element is injective on the
    quotient so far, in every degree <= N: by bitmask ranks over F_2, by
    integer lattices over Z (the Smith form for a nonzero scalar).
    ValueError for a base of characteristic p > 2, or a prefix over Z that
    holds a scalar but not 2."""
    pring = module.pring
    failures = []
    for step, elt in enumerate(seq):
        prefix = [e.poly for e in seq[:step]] + list(module.relations)
        s = elt.poly
        if _quotient_char(pring.base.char, prefix) == 2:
            bad = _kernel_f2(pring, prefix, s, N)
        elif _is_int_scalar(s) and s.terms:   # *0 kills free classes too
            bad = _kernel_scalar(pring, prefix, _scalar_value(s), N)
        else:
            bad = _kernel_lattice(pring, prefix, s, N)
        if bad is not None:
            failures.append((step,) + bad)
    return RegularityReport(not failures, failures)


def _is_int_scalar(s: Poly) -> bool:
    return all(all(x == 0 for x in e) for e in s.terms)


def _scalar_value(s: Poly) -> int:
    if not s.terms:
        return 0
    return _poly_int_coeff(next(iter(s.terms.values())))


def _quotient_char(char: int, prefix: list[Poly]) -> int:
    """Characteristic of the ring the quotient by prefix is read over: 2 or 0."""
    scalars = {abs(_scalar_value(g)) for g in prefix if _is_int_scalar(g)}
    if char == 2 or (char == 0 and 2 in scalars):
        return 2
    if char == 0 and not scalars:
        return 0
    raise ValueError(f"regularity over characteristic {char} after the scalars "
                     f"{sorted(scalars)}: only Z and F_2 quotients are supported")


def _kernel_scalar(pring, prefix, n, N):
    """*n has a kernel on Lambda_d / prefix iff the quotient has torsion of an
    order sharing a prime with n: read off the Smith form."""
    for d in range(N + 1):
        cols = _span_columns(pring, prefix, d)
        diag = smith_normal_form([list(r) for r in zip(*cols)]) if cols else []
        for t in diag:
            if gcd(t, n) > 1:
                return (d, f"torsion class of order {t} at degree {d}")
    return None


def _kernel_f2(pring, prefix, s, N):
    """x with s*x in the ideal but x outside it, mod 2.  Generators that
    vanish mod 2 (the scalar 2) span nothing there and are dropped, and each
    degree's ideal is row-reduced once, for step d and for step d - |s|."""
    gens = [g for g in prefix if any(_poly_int_coeff(c) % 2 for c in g.terms.values())]
    ideals = {}

    def ideal(d):
        if d not in ideals:
            ideals[d] = f2_rref([f2_mask(c) for c in _span_columns(pring, gens, d)])
        return ideals[d]

    e = s.wdegree() or 0
    for d in range(N + 1):
        cols = [f2_reduce(*ideal(d + e), f2_mask(c)) for c in _mult_columns(pring, s, d)]
        for vec in f2_nullspace(cols):
            if f2_reduce(*ideal(d), vec):
                mono = _monomials(pring.weights, d)[(vec & -vec).bit_length() - 1]
                return (d, f"class of {mono} at degree {d}")
    return None


def _kernel_lattice(pring, prefix, s, N):
    """x with s*x in the ideal lattice but x outside it, over Z."""
    e = s.wdegree() or 0
    for d in range(N + 1):
        cols = _mult_columns(pring, s, d)
        if not cols:
            continue
        span_de = _span_columns(pring, prefix, d + e)
        ker = int_kernel(cols + [[-x for x in c] for c in span_de], len(cols) + len(span_de))
        span_d = _span_columns(pring, prefix, d)
        for vec in ker:
            x = vec[:len(cols)]
            if any(x) and solve_int_exact(span_d, x) is None:
                mono = _monomials(pring.weights, d)[next(i for i, v in enumerate(x) if v)]
                return (d, f"class of {mono} at degree {d}")
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
            for m in _monomials(pring.weights, rem):
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

    for d in range(N + 1):
        basis = [chain_basis(s, d) for s in range(r + 1)]
        # diffs[s] holds d_s in degree d, read both for the kernel at s and the
        # image at s - 1; d_0 = d_(r+1) = 0
        diffs = [[]] + [diff_matrix_int(s, basis[s], basis[s - 1])
                        for s in range(1, r + 1)] + [[]]
        if char:
            rk = [f2_rank(cols) for cols in diffs]
        for s in range(r + 1):
            n_s = len(basis[s])
            if not n_s:
                continue
            if char:
                entries[(s, d)] = (n_s - rk[s] - rk[s + 1], [])
            else:
                free, diag = lattice_homology(diffs[s], n_s, diffs[s + 1])
                entries[(s, d)] = p_local_structure(diag, free, 2)
    return TorTable(entries, degs)


def fp_poly_dims(weights: list[int], N: int) -> list[int]:
    """dims of F_p[t_i] by weighted-monomial count (independent of rref work)."""
    return monomial_count_dims(weights, [], N)


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
