"""Mod-2 Steenrod algebra in the Milnor basis.

Monomials are tuples (r1, r2, ...) without trailing zeros, of degree
sum r_i (2^i - 1); elements are frozensets of monomials (F2 sums).

`milnor_product_mono` enumerates the Milnor matrices of Sq(r) Sq(s) directly.
A matrix X has weighted row sums sum_j 2^j X[i][j] = r_i and column sums
sum_i X[i][j] = s_j; it contributes Sq(t_1, t_2, ...), t_n the sum of its
n-th antidiagonal, when that multinomial coefficient is odd, i.e. the entries
of each antidiagonal share no binary digit.  The inner cells are filled row by
row against the budgets still unspent, keeping one OR accumulator per
antidiagonal.  A cell tries only the values v that share no bit with its
antidiagonal's accumulator, stepping v <- ((v | a) + 1) & ~a; each row
remainder X[i][0] is tested when its row closes, and each column remainder
X[0][j] after the last row.  A matrix with a carry is cut where the carry
first appears, and the accumulators of a complete one are the t_n.
The product is memoised with `lru_cache` like `basis` and `adem_expand`:
its arguments are tuples and its result a frozenset, so the cached values are
immutable and no caller can change what another receives.

Two independent oracles live alongside: an Adem-relation straightener on
admissible words, and operator actions on polynomial algebras (Cartan for
Sq^k, coproduct expansion for Milnor generators), used to cross-check the
Milnor multiplication.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from .errors import FreenessViolation
from .linalg import f2_rref, f2_reduce
from .poly import monomials_of_weighted_degree


def mono_degree(r: tuple) -> int:
    return sum(ri * (2 ** (i + 1) - 1) for i, ri in enumerate(r))


def _strip(r) -> tuple:
    r = list(r)
    while r and r[-1] == 0:
        r.pop()
    return tuple(r)


def sq(n: int) -> frozenset:
    """Sq^n as a Milnor element (single-entry monomial)."""
    if n == 0:
        return frozenset({()})
    return frozenset({(n,)})


def milnor_primitive(i: int) -> frozenset:
    """Q^i = Sq(0, ..., 0, 1) with the 1 in slot i+1; degree 2^(i+1) - 1."""
    return frozenset({_strip((0,) * i + (1,))})


UNIT = frozenset({()})
ZERO = frozenset()


@lru_cache(maxsize=None)
def basis(d: int) -> tuple:
    """All Milnor monomials of degree d, lexicographically sorted."""
    if d < 0:
        return ()
    out = []

    def rec(i, rem, acc):
        wt = 2 ** (i + 1) - 1
        if rem == 0:
            out.append(_strip(acc))
            return
        if wt > rem:
            return
        for k in range(rem // wt + 1):
            rec(i + 1, rem - k * wt, acc + [k])

    rec(0, d, [])
    return tuple(sorted(out))


def dims_table(N: int) -> list[int]:
    return [len(basis(d)) for d in range(N + 1)]


def poincare_product_dims(N: int) -> list[int]:
    """Coefficients of prod_{i>=1} 1/(1 - q^(2^i - 1)): an independent count."""
    weights = [2 ** i - 1 for i in range(1, N.bit_length() + 1) if 2 ** i - 1 <= N]
    return exterior_pattern_dims(weights, [], N)


def exterior_pattern_dims(poly_weights: list[int], ext_degrees: list[int], N: int) -> list[int]:
    """dims of F_p[t_i] tensor Lambda[x_k] by total degree, through N."""
    out = [1] + [0] * N
    for w in poly_weights:
        for d in range(w, N + 1):
            out[d] += out[d - w]
    for w in ext_degrees:
        for d in range(N, w - 1, -1):
            out[d] += out[d - w]
    return out


def monomial_count_dims(poly_weights: list[int], ext_degrees: list[int], N: int) -> list[int]:
    """The dims of `exterior_pattern_dims`, counted without its convolution:
    for each set of exterior generators, the polynomial monomials of the
    remaining degree."""
    weights = tuple(poly_weights)
    poly = [len(monomials_of_weighted_degree(weights, d)) for d in range(N + 1)]
    out = [0] * (N + 1)
    for k in range(len(ext_degrees) + 1):
        for S in combinations(ext_degrees, k):
            e = sum(S)
            for d in range(e, N + 1):
                out[d] += poly[d - e]
    return out


def _carry_free(parts: list[int], total: int) -> bool:
    return sum(bin(p).count("1") for p in parts) == bin(total).count("1")


@lru_cache(maxsize=None)
def milnor_product_mono(r: tuple, s: tuple) -> frozenset:
    """Product of two Milnor monomials: the F2 sum over the Milnor matrices
    with weighted row sums r and column sums s (see the module docstring)."""
    k, l = len(r), len(s)
    col = list(s)                 # col[j - 1]: what column j leaves for X[0][j]
    acc = [0] * (k + l + 1)       # acc[n]: OR of the entries on antidiagonal n
    results = set()

    def fill(i, j, rem):
        # rem: what row i leaves for X[i][0] once cells (i, 1..j-1) are set
        if j <= l:
            n = i + j
            a, c = acc[n], col[j - 1]
            cap = min(rem >> j, c)
            v = 0
            while v <= cap:
                acc[n] = a | v
                col[j - 1] = c - v
                fill(i, j + 1, rem - (v << j))
                v = ((v | a) + 1) & ~a      # next v sharing no bit with a
            acc[n], col[j - 1] = a, c
            return
        a = acc[i]
        if rem & a:
            return
        acc[i] = a | rem
        if i < k:
            fill(i + 1, 1, r[i])
        else:
            t = acc[1:]
            for j, x in enumerate(col):
                if x & t[j]:
                    break
                t[j] |= x
            else:
                results.symmetric_difference_update({_strip(t)})
        acc[i] = a

    if k:
        fill(1, 1, r[0])
    else:
        results.add(s)
    return frozenset(results)


def milnor_product(a: frozenset, b: frozenset) -> frozenset:
    out = set()
    for r in a:
        for s in b:
            out.symmetric_difference_update(milnor_product_mono(r, s))
    return frozenset(out)


def element_degree(a: frozenset):
    degs = {mono_degree(r) for r in a}
    if len(degs) > 1:
        raise ValueError("inhomogeneous element")
    return degs.pop() if degs else None


# -- Adem / operator oracles ---------------------------------------------------

@lru_cache(maxsize=None)
def adem_expand(a: int, b: int) -> frozenset:
    """Sq^a Sq^b as an F2 set of admissible words (a < 2b rewritten by the Adem
    relation, recursively)."""
    from math import comb
    if a == 0:
        return frozenset({(b,)} if b else {()})
    if b == 0:
        return frozenset({(a,)})
    if a >= 2 * b:
        return frozenset({(a, b)})
    out = set()
    for c in range(a // 2 + 1):
        if comb(b - c - 1, a - 2 * c) % 2:
            if c == 0:
                out.symmetric_difference_update({(a + b,)})
            else:
                out.symmetric_difference_update(
                    {w for w in adem_word_normalize((a + b - c, c))})
    return frozenset(out)


@lru_cache(maxsize=None)
def adem_word_normalize(word: tuple) -> frozenset:
    """Rewrite an arbitrary Sq word into admissible words over F2."""
    word = tuple(w for w in word if w != 0)
    if len(word) <= 1:
        return frozenset({word})
    for i in range(len(word) - 1):
        if word[i] < 2 * word[i + 1]:
            out = set()
            for repl in adem_expand(word[i], word[i + 1]):
                merged = word[:i] + repl + word[i + 2:]
                out.symmetric_difference_update(adem_word_normalize(merged))
            return frozenset(out)
    return frozenset({word})


def sq_on_poly(i: int, poly: frozenset, nvars: int) -> frozenset:
    """Sq^i on an F2 polynomial in degree-one generators (set of exponent
    tuples), via the Cartan formula."""
    out = set()
    for mono in poly:
        out.symmetric_difference_update(_sq_mono(i, mono, nvars))
    return frozenset(out)


@lru_cache(maxsize=None)
def _sq_mono(i: int, mono: tuple, nvars: int) -> frozenset:
    from math import comb
    if i == 0:
        return frozenset({mono})
    nz = [k for k, e in enumerate(mono) if e]
    if not nz:
        return frozenset()
    if len(nz) == 1:
        k = nz[0]
        n = mono[k]
        if comb(n, i) % 2:
            new = list(mono)
            new[k] = n + i
            return frozenset({tuple(new)})
        return frozenset()
    k = nz[0]
    head = tuple(mono[j] if j == k else 0 for j in range(len(mono)))
    tail = tuple(0 if j == k else mono[j] for j in range(len(mono)))
    out = set()
    for j in range(i + 1):
        left = _sq_mono(j, head, nvars)
        right = _sq_mono(i - j, tail, nvars)
        for lm in left:
            for rm in right:
                prod = tuple(a + b for a, b in zip(lm, rm))
                out.symmetric_difference_update({prod})
    return frozenset(out)


def word_on_poly(word: tuple, poly: frozenset, nvars: int) -> frozenset:
    for i in reversed(word):
        poly = sq_on_poly(i, poly, nvars)
    return poly


@lru_cache(maxsize=None)
def _milnor_mono_on_power(r: tuple, n: int) -> frozenset:
    """Sq(r) acting on x^n in F2[x]: multinomial(n; n - sum r, r1, r2, ...) times
    x^(n - sum r + sum r_i 2^i)."""
    total = sum(r)
    if total > n:
        return frozenset()
    parts = [n - total] + list(r)
    if not _carry_free([p for p in parts if p], n):
        return frozenset()
    new = n - total + sum(ri * 2 ** (i + 1) for i, ri in enumerate(r))
    return frozenset({new})


def milnor_on_poly(r: tuple, poly: frozenset, nvars: int) -> frozenset:
    out = set()
    for mono in poly:
        out.symmetric_difference_update(_milnor_mono_on_mono(r, mono))
    return frozenset(out)


@lru_cache(maxsize=None)
def _milnor_mono_on_mono(r: tuple, mono: tuple) -> frozenset:
    nz = [k for k, e in enumerate(mono) if e]
    if not nz:
        return frozenset({mono}) if not r else frozenset()
    k = nz[0]
    rest = tuple(0 if j == k else mono[j] for j in range(len(mono)))
    out = set()
    for split in _coproduct_splits(r):
        e, f = split
        left = _milnor_mono_on_power(e, mono[k])
        if not left:
            continue
        for lp in left:
            for rm in _milnor_mono_on_mono(f, rest):
                new = tuple(lp if j == k else rm[j] for j in range(len(mono)))
                out.symmetric_difference_update({new})
    return frozenset(out)


@lru_cache(maxsize=None)
def _coproduct_splits(r: tuple):
    """Coproduct of Sq(r): all (E, F) with E + F = r componentwise."""
    return tuple((_strip(e), _strip(ri - ei for ri, ei in zip(r, e)))
                 for e in product(*(range(ri + 1) for ri in r)))


def element_on_poly(a: frozenset, poly: frozenset, nvars: int) -> frozenset:
    out = set()
    for r in a:
        out.symmetric_difference_update(milnor_on_poly(r, poly, nvars))
    return frozenset(out)


# -- profiles -------------------------------------------------------------------

class Profile:
    """Exponent bounds r_i < bound(i) (1-indexed) cutting out a subalgebra."""

    def __init__(self, kind: str, n: int):
        if kind not in ("E", "A"):
            raise ValueError("profile kind must be 'E' or 'A'")
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"profile index must be an int >= 0, not {n!r}")
        self.kind = kind
        self.n = n

    def bound(self, i: int) -> int:
        if self.kind == "E":
            return 2 if i <= self.n + 1 else 1
        return 2 ** max(self.n + 2 - i, 0)

    def generators(self) -> list[tuple]:
        """Algebra generators as Milnor monomials: Q_0, ..., Q_n for E(n),
        Sq(1), Sq(2), ..., Sq(2^n) for A(n)."""
        if self.kind == "E":
            return [(0,) * i + (1,) for i in range(self.n + 1)]
        return [(2 ** i,) for i in range(self.n + 1)]

    def member(self, r: tuple) -> bool:
        return all(ri < self.bound(i + 1) for i, ri in enumerate(r))

    def algebra_basis(self) -> list[tuple]:
        """Finite Milnor-monomial basis of the subalgebra."""
        bounds = []
        i = 1
        while self.bound(i) > 1:
            bounds.append(self.bound(i))
            i += 1
        out = [_strip(e) for e in product(*(range(b) for b in bounds))]
        return sorted(out, key=lambda r: (mono_degree(r), r))

    def closure_check(self) -> bool:
        """True when the span of `algebra_basis()` is closed under the product,
        proven from `generators()`: for each generator g and basis member b,
        every monomial of g.b is a member (with b = 1, so is g), and the
        words in the generators span the basis.  A product x.y of members is
        then a sum of g1.(g2.(... (gk.y))), each step inside the span.

        The words are grown from the unit by F2 elimination over the bitmasks
        of those |gens| * |basis| products, so no further product is made."""
        bs = self.algebra_basis()
        index = {b: i for i, b in enumerate(bs)}
        left = []                  # left[k][i]: generator k . bs[i] as a bitmask
        for g in self.generators():
            row = []
            for b in bs:
                mask = 0
                for m in milnor_product_mono(g, b):
                    if m not in index:
                        return False
                    mask |= 1 << index[m]
                row.append(mask)
            left.append(row)
        rows = {}                  # leading bit -> row: the words' echelon basis
        todo = [1 << index[()]]
        while todo:
            v = todo.pop()
            while v and v.bit_length() - 1 in rows:
                v ^= rows[v.bit_length() - 1]
            if v:
                rows[v.bit_length() - 1] = v
                todo.extend(_apply_left(row, v) for row in left)
        return len(rows) == len(bs)

    def dims(self, N: int) -> list[int]:
        out = [0] * (N + 1)
        for r in self.algebra_basis():
            d = mono_degree(r)
            if d <= N:
                out[d] += 1
        return out

    def total_dim(self) -> int:
        return len(self.algebra_basis())

    def __repr__(self):
        return f"{self.kind}({self.n})"


def _apply_left(row: list[int], v: int) -> int:
    """g.v for v a bitmask over a basis, given row[i] = g.(basis member i)."""
    out = 0
    while v:
        low = v & -v
        out ^= row[low.bit_length() - 1]
        v ^= low
    return out


def exterior_generators_span(n: int) -> list[frozenset]:
    """Products of distinct Milnor primitives Q^0..Q^n (2^(n+1) elements)."""
    out = [UNIT]
    for i in range(n + 1):
        qi = milnor_primitive(i)
        out = out + [milnor_product(e, qi) for e in out]
    return out


# -- quotient modules A // B ------------------------------------------------------

class QuotientModule:
    """A // B = A / A.B+ with lexicographically minimal coset representatives.

    Per degree: `index[d]` (monomial -> position in basis(d)), `reps[d]`
    (indices into basis(d)) and the rref of the ideal span.

    The ideal is spanned by the products a.g, a in basis(d - |g|), over the
    algebra generators g of B (`Profile.generators`): every element of B+ is
    a sum of words in them, so A.B+ = sum_g A.g.  `f2_rref` fully reduces its
    rows, so the pivots, the reps and the set of reduced rows depend only on
    the span, and `f2_reduce` against them does not depend on row order:
    the tables equal those spanned by all of B+.
    """

    def __init__(self, profile: Profile, N: int):
        self.profile = profile
        self.N = N
        self.index = {}
        self.ideal_basis = {}
        self.ideal_pivots = {}
        self.reps = {}
        gens = [(g, mono_degree(g)) for g in profile.generators()]
        for d in range(N + 1):
            mons = basis(d)
            index = self.index[d] = {m: i for i, m in enumerate(mons)}
            span_rows = []
            for g, e in gens:
                for a in basis(d - e):
                    prod = milnor_product_mono(a, g)
                    vec = 0
                    for m in prod:
                        vec |= 1 << index[m]
                    if vec:
                        span_rows.append(vec)
            bas, piv = f2_rref(span_rows)
            self.ideal_basis[d] = bas
            self.ideal_pivots[d] = piv
            pivset = set(piv)
            self.reps[d] = [i for i in range(len(mons)) if i not in pivset]

    def dim(self, d: int) -> int:
        return len(self.reps[d])

    def dims(self) -> list[int]:
        return [self.dim(d) for d in range(self.N + 1)]

    def reduce_vector(self, d: int, vec: int) -> int:
        return f2_reduce(self.ideal_basis[d], self.ideal_pivots[d], vec)

    def element_vector(self, d: int, elem: frozenset) -> int:
        index = self.index[d]
        vec = 0
        for m in elem:
            vec |= 1 << index[m]
        return vec

    def coset_coords(self, d: int, elem: frozenset) -> int:
        """Residue of an element as a bitmask over rep indices."""
        red = self.reduce_vector(d, self.element_vector(d, elem))
        out = 0
        for pos, i in enumerate(self.reps[d]):
            if (red >> i) & 1:
                out |= 1 << pos
        return out

    def action_matrix(self, op: frozenset, d: int):
        """Columns: images of the degree-d coset basis under left mult by op."""
        e = element_degree(op)
        if e is None or d + e > self.N:
            return None
        cols = []
        mons = basis(d)
        for i in self.reps[d]:
            img = milnor_product(op, frozenset({mons[i]}))
            cols.append(self.coset_coords(d + e, img))
        return cols

    def cyclic_check(self) -> bool:
        """The degree-0 class generates under the Sq(2^i): the span reached
        in degree d is the image of the spans at d - 2^i under the actions."""
        span = {0: [1]}
        for d in range(1, self.N + 1):
            images = []
            e = 1
            while e <= d:
                act = self.action_matrix(sq(e), d - e)
                images += compose_f2_matrices(act, span[d - e])
                e *= 2
            span[d] = f2_rref(images)[0]
            if len(span[d]) != self.dim(d):
                return False
        return True


def quotient_dims_convolution(profile: Profile, N: int) -> list[int]:
    """dims of A//B from the exact series division P_A / P_B; a negative or
    fractional coefficient would falsify freeness of A over B."""
    pa = dims_table(N)
    pb = profile.dims(N)
    out = []
    for d in range(N + 1):
        acc = pa[d] - sum(out[i] * pb[d - i] for i in range(d))
        if pb[0] != 1:
            raise FreenessViolation("subalgebra has no unit?")
        if acc < 0:
            raise FreenessViolation(f"negative quotient dimension at degree {d}")
        out.append(acc)
    return out


def module_map_matrix(src: QuotientModule, dst: QuotientModule, d: int):
    """Degreewise matrix of the canonical 1 -> 1 map A//B1 -> A//B2."""
    cols = []
    mons = basis(d)
    for i in src.reps[d]:
        cols.append(dst.coset_coords(d, frozenset({mons[i]})))
    return cols


def compose_f2_matrices(later: list[int], earlier: list[int]) -> list[int]:
    """Columns of later o earlier, each column of earlier a mask over the
    basis that indexes the columns of later."""
    return [_apply_left(later, col) for col in earlier]


def square_check(N: int) -> dict:
    """Build A//E(1), A//E(2), A//A(1), A//A(2) and the four canonical maps;
    verify commutativity, A-linearity on Sq(2^i), and cyclicity, through N."""
    E1 = QuotientModule(Profile("E", 1), N)
    E2 = QuotientModule(Profile("E", 2), N)
    A1 = QuotientModule(Profile("A", 1), N)
    A2 = QuotientModule(Profile("A", 2), N)
    out = {"commutes": True, "linear": True, "cyclic": True, "witness": {}}
    pairs = [(E1, E2), (E1, A1), (E2, A2), (A1, A2)]
    maps = {(src, dst): [module_map_matrix(src, dst, d) for d in range(N + 1)]
            for src, dst in pairs}
    for d in range(N + 1):
        via_top = compose_f2_matrices(maps[E2, A2][d], maps[E1, E2][d])
        via_bottom = compose_f2_matrices(maps[A1, A2][d], maps[E1, A1][d])
        if via_top != via_bottom:
            out["commutes"] = False
            out["witness"][d] = "square"
    for src, dst in pairs:
        t = maps[src, dst]
        e = 1
        while e <= N:
            op = sq(e)
            for d in range(N + 1 - e):
                lhs = compose_f2_matrices(t[d + e], src.action_matrix(op, d))
                rhs = compose_f2_matrices(dst.action_matrix(op, d), t[d])
                if lhs != rhs:
                    out["linear"] = False
                    out["witness"][(repr(src.profile), repr(dst.profile), e, d)] = "lin"
            e *= 2
    for mod in (E1, E2, A1, A2):
        if not mod.cyclic_check():
            out["cyclic"] = False
            out["witness"][repr(mod.profile)] = "cyclic"
    out["ok"] = out["commutes"] and out["linear"] and out["cyclic"]
    return out


# -- homology-side dimension tables ------------------------------------------------

def bstar_dims(n: int, p: int, N: int) -> list[int]:
    """dims of B_*: at p = 2 the polynomial algebra on squares of the first
    n+1 dual generators and the rest unsquared; at odd p the polynomial duals
    (degrees 2(p^i - 1)) tensored with the exterior part from index n+1 on."""
    if p == 2:
        return exterior_pattern_dims(bstar_generator_degrees(n, p, N), [], N)
    return dual_steenrod_dims_odd(p, N, tau_from=n + 1)


def bstar_generator_degrees(n: int, p: int, N: int) -> list[int]:
    if p != 2:
        raise ValueError("generator list is the p = 2 branch")
    gens = []
    i = 1
    while True:
        d = 2 * (2 ** i - 1) if i <= n + 1 else 2 ** i - 1
        if d > N:
            break
        gens.append(d)
        i += 1
    return gens


def dual_steenrod_dims_odd(p: int, N: int, tau_from: int = 0) -> list[int]:
    """dims of P(xi_1, ...) tensor E(tau_j : j >= tau_from) at an odd prime,
    by monomial count: `bp.tor_degeneration_identity` compares it with the
    convolution over the same degrees, so it must not be that convolution."""
    xi = []
    i = 1
    while 2 * (p ** i - 1) <= N:
        xi.append(2 * (p ** i - 1))
        i += 1
    tau = []
    j = tau_from
    while 2 * p ** j - 1 <= N:
        tau.append(2 * p ** j - 1)
        j += 1
    return monomial_count_dims(xi, tau, N)


def duality_dims_check(n: int, N: int) -> bool:
    """dim (A//E(n))_d = dim B_*(n)_d for d <= N (p = 2)."""
    q = quotient_dims_convolution(Profile("E", n), N)
    b = bstar_dims(n, 2, N)
    return q == b


def evenness_below(n: int, N: int) -> bool:
    """A//E(n) and B_*(n) have no odd-degree classes below 2^(n+2) - 1."""
    bound = 2 ** (n + 2) - 1
    q = quotient_dims_convolution(Profile("E", n), min(N, bound - 1))
    b = bstar_dims(n, 2, min(N, bound - 1))
    for d in range(1, min(N, bound - 1) + 1):
        if d % 2 == 1 and (q[d] or b[d]):
            return False
    return True
