"""Exact linear algebra backends.

Three levels, each used where it fits:
  * GF(2) matrices as lists of int bitmasks (fast rref / solve / nullspace),
    with integer columns read mod 2 by f2_mask and ranked by f2_rank;
  * generic row reduction over any field-like Ring (rings.QQ, F_p, quotient
    fields);
  * integer lattice routines (saturated kernel via row HNF, Smith normal form)
    for homology over Z localized at a prime.

`lattice_homology` is the one reading of ker/im over Z: the saturated kernel,
the image written in its basis by the field solve over rings.QQ (no solve
when the kernel map is zero and the kernel is Z^n), and the Smith invariants
of that image.  The Koszul Tor (`bp.koszul_tor`) and the
C_2 cohomology (`kforms.c2_lattice_cohomology`) both call it and differ only
in how they read the invariants.

The field solve, the row HNF and the Smith form update each row in place, at
the nonzero columns of the pivot row only: their matrices (Koszul
differentials, kernel bases) are mostly zero.  Pivot order is that of the
dense eliminations, so results are identical; the Smith pivot search stops at
the first unit, which is the row-major-first minimum the full scan would pick.
"""

from __future__ import annotations

from .errors import IntegralityFailure
from .rings import QQ, _valuation


# -- GF(2), rows as bitmasks ---------------------------------------------------

def f2_rref(rows: list[int]) -> tuple[list[int], list[int]]:
    """Reduced row echelon form. Returns (basis rows, pivot column indices)."""
    basis: list[int] = []
    pivots: list[int] = []
    for row in rows:
        r = row
        for b, p in zip(basis, pivots):
            if (r >> p) & 1:
                r ^= b
        if r:
            p = r.bit_length() - 1
            for i, (b2, p2) in enumerate(zip(basis, pivots)):
                if (b2 >> p) & 1:
                    basis[i] = b2 ^ r
            basis.append(r)
            pivots.append(p)
    return basis, pivots


def f2_mask(col: list[int]) -> int:
    """An integer column mod 2, as a bitmask."""
    return sum(1 << i for i, v in enumerate(col) if v & 1)


def f2_rank(columns: list[list[int]]) -> int:
    """The rank over GF(2) of integer columns read mod 2."""
    return len(f2_rref([f2_mask(col) for col in columns])[0])


def f2_reduce(basis: list[int], pivots: list[int], v: int) -> int:
    """v reduced by an f2_rref basis: 0 exactly when v lies in its span."""
    r = v
    for b, p in zip(basis, pivots):
        if (r >> p) & 1:
            r ^= b
    return r


def f2_solve(columns: list[int], target: int):
    """Solve sum_{j in S} columns[j] = target over GF(2).

    Returns a bitmask over column indices, or None.
    The target enters the elimination as column n = len(columns): it is
    solvable exactly when it reduces to zero, by the columns in its tag.
    """
    n = len(columns)
    null = _f2_tagged_elimination(columns + [target])
    return null[-1] ^ (1 << n) if null and null[-1] >> n else None


def f2_nullspace(columns: list[int]) -> list[int]:
    """Nullspace of the matrix with the given columns; vectors as column-index
    bitmasks."""
    return _f2_tagged_elimination(columns)


def _f2_tagged_elimination(columns: list[int]) -> list[int]:
    """The tags of the columns that reduce to zero, a nullspace basis: column
    j enters tagged 1 << j and is reduced by the echelon rows before it, each
    row carrying the columns that sum to it."""
    basis: list[tuple[int, int, int]] = []      # (row, tag, pivot)
    null = []
    for j, col in enumerate(columns):
        r, t = col, 1 << j
        for b, bt, p in basis:
            if (r >> p) & 1:
                r ^= b
                t ^= bt
        if r:
            basis.append((r, t, r.bit_length() - 1))
        else:
            null.append(t)
    return null


# -- generic field solves ------------------------------------------------------

class FieldOps:
    """Adapter turning a Ring with total inversion of nonzero elements into
    the little interface the generic routines need."""

    def __init__(self, ring):
        self.ring = ring

    def solve_many(self, columns: list[list], targets: list[list]):
        """Solve the same system for many right-hand sides with one reduction.
        Pivots are restricted to the coefficient block."""
        R = self.ring
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
            prow = rows[rank]
            inv = R.inv(prow[col])
            nz = [j for j, x in enumerate(prow) if not R.is_zero(x)]
            for j in nz:
                prow[j] = R.mul(inv, prow[j])
            for i, row in enumerate(rows):
                if i != rank and not R.is_zero(row[col]):
                    f = row[col]
                    for j in nz:
                        row[j] = R.sub(row[j], R.mul(f, prow[j]))
            pivots.append(col)
            rank += 1
        outs = []
        for ti in range(k):
            # consistency: rows below the rank must have zero target entry
            if any(not R.is_zero(rows[i][n + ti]) for i in range(rank, len(rows))):
                outs.append(None)
                continue
            x = [R.zero()] * n
            for r, p in zip(rows[:rank], pivots):
                x[p] = r[n + ti]
            outs.append(x)
        return outs


# -- integer lattices ----------------------------------------------------------

def hnf_rows(mat: list[list[int]]) -> list[list[int]]:
    """Row Hermite-ish normal form by integer row operations (no column ops)."""
    m = [list(r) for r in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r = 0
    for c in range(cols):
        # find pivot with smallest nonzero absolute value
        piv = None
        for i in range(r, rows):
            if m[i][c] != 0 and (piv is None or abs(m[i][c]) < abs(m[piv][c])):
                piv = i
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        nz = [j for j, a in enumerate(prow) if a]
        changed = True
        while changed:
            changed = False
            for i in range(r + 1, rows):
                row = m[i]
                if row[c]:
                    q = row[c] // prow[c]
                    for j in nz:
                        row[j] -= q * prow[j]
                    if row[c]:
                        if abs(row[c]) < abs(prow[c]):
                            # the smaller remainder becomes the pivot row
                            m[r], m[i] = row, prow
                            prow = row
                            nz = [j for j, a in enumerate(prow) if a]
                        changed = True
        if m[r][c] < 0:
            m[r] = [-a for a in m[r]]
        r += 1
        if r == rows:
            break
    return m


def int_kernel(columns: list[list[int]], ncols: int) -> list[list[int]]:
    """Saturated Z-basis of {x in Z^ncols : sum x_j columns[j] = 0}.

    columns[j] is the image of the j-th basis vector.
    """
    height = len(columns[0]) if columns else 0
    aug = []
    for j in range(ncols):
        aug.append(list(columns[j]) + [1 if k == j else 0 for k in range(ncols)])
    red = hnf_rows(aug)
    out = []
    for row in red:
        if all(v == 0 for v in row[:height]):
            vec = row[height:]
            if any(vec):
                out.append(vec)
    return out


def smith_normal_form(mat: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form (nonzero entries, unordered divisibility
    not enforced beyond diagonalization; adequate for p-local torsion reading)."""
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
            row = m[i]
            for j in range(left, cols):
                if row[j] and (best is None or abs(row[j]) < best):
                    best = abs(row[j])
                    piv = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        pi, pj = piv
        m[top], m[pi] = m[pi], m[top]
        for i in range(rows):
            m[i][left], m[i][pj] = m[i][pj], m[i][left]
        # clear row and column
        dirty = True
        while dirty:
            dirty = False
            prow = m[top]
            nz = [j for j, a in enumerate(prow) if a]
            for i in range(top + 1, rows):
                row = m[i]
                if row[left]:
                    q = row[left] // prow[left]
                    for j in nz:
                        row[j] -= q * prow[j]
                    if row[left]:
                        m[top], m[i] = row, prow
                        prow = row
                        nz = [j for j, a in enumerate(prow) if a]
                        dirty = True
            # column operations touch only the rows nonzero in the pivot column
            nzr = [row for row in m if row[left]]
            for j in range(left + 1, cols):
                if prow[j]:
                    q = prow[j] // prow[left]
                    for row in nzr:
                        row[j] -= q * row[left]
                    if prow[j]:
                        for row in m:
                            row[left], row[j] = row[j], row[left]
                        nzr = [row for row in m if row[left]]
                        dirty = True
        diag.append(abs(m[top][left]))
        top += 1
        left += 1
    return [d for d in diag if d != 0]


def p_local_structure(diag: list[int], ncols: int, p: int) -> tuple[int, list[int]]:
    """(free rank, torsion exponents) of Z^ncols / <rows with given Smith diag>,
    viewed over Z localized at p."""
    free = ncols - len(diag)
    torsion = [v for v in (_valuation(d, p)[0] for d in diag) if v > 0]
    return free, sorted(torsion)


def lattice_homology(kernel_of: list[list[int]], n: int,
                     image_of: list[list[int]]) -> tuple[int, list[int]]:
    """ker / im at Z^n, for the maps Z^n -> Z^k with columns kernel_of and
    Z^m -> Z^n with columns image_of: (rank of the saturated kernel, Smith
    invariants of the image written in a kernel basis).  No kernel_of columns,
    or columns of height 0, is the zero map.  IntegralityFailure when an image
    column leaves the kernel lattice.  Under the zero map the kernel is Z^n
    in its standard basis, where the image columns are their own coordinates."""
    if not (kernel_of and kernel_of[0]):
        return n, (smith_normal_form([list(col) for col in image_of]) if image_of else [])
    ker = int_kernel(kernel_of, n)
    rel = []
    for coords in FieldOps(QQ).solve_many(ker, image_of):
        if coords is None or any(v.denominator != 1 for v in coords):
            raise IntegralityFailure("image not contained in the saturated kernel")
        rel.append([int(v) for v in coords])
    return len(ker), (smith_normal_form(rel) if rel else [])


def solve_int_exact(columns: list[list[int]], target: list[int]):
    """Integer solution x of sum x_j columns[j] = target, or None.

    Row-reduces [columns[j] | e_j] to echelon form (hnf_rows), then
    back-substitutes the target down the pivots; the identity block records
    the combination.  Complete over Z: None means no integer solution."""
    n = len(columns)
    height = len(target)
    if n == 0:
        return [] if all(t == 0 for t in target) else None
    aug = [list(columns[j]) + [1 if k == j else 0 for k in range(n)] for j in range(n)]
    resid = list(target)
    x = [0] * n
    for row in hnf_rows(aug):
        piv = next((c for c in range(height) if row[c] != 0), None)
        if piv is None:
            break
        q, r = divmod(resid[piv], row[piv])
        if r:
            return None
        if q:
            resid = [a - q * b for a, b in zip(resid, row)]
            x = [a + q * b for a, b in zip(x, row[height:])]
    return x if not any(resid) else None
