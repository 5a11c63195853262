import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

import oracles
from chromalg.linalg import (FieldOps, f2_mask, f2_nullspace, f2_rank, f2_rref, f2_solve,
                             hnf_rows, int_kernel, p_local_structure, smith_normal_form,
                             solve_int_exact)
from chromalg.poly import Poly, PolyRing, monomials_of_weighted_degree
from chromalg.rings import PrimeField, QQ, ZZ


def _homogeneous_part(f, d: int):
    """The terms of f of weighted degree d."""
    w = f.pring.weights
    return Poly(f.pring, {e: c for e, c in f.terms.items()
                        if sum(x * k for x, k in zip(e, w)) == d})


def test_weighted_poly_basics():
    P = PolyRing(ZZ, ("A", "B"), weights=(1, 3))
    A, B = P.gen("A"), P.gen("B")
    f = A ** 3 + B
    assert f.is_homogeneous() and f.wdegree() == 3
    g = f + A
    assert not g.is_homogeneous()
    assert _homogeneous_part(g, 3) == f
    assert _homogeneous_part(g, 1) == A


def test_laurent_exponents_guarded():
    P = PolyRing(ZZ, ("a",))
    with pytest.raises(ValueError):
        P.gen("a", -1)
    L = PolyRing(ZZ, ("a",), laurent=("a",))
    x = L.gen("a", -3)
    assert L.is_unit(x)
    assert L.mul(x, L.gen("a", 3)) == L.one()


def test_poly_substitute():
    P = PolyRing(ZZ, ("A", "B"), weights=(1, 3))
    A, B = P.gen("A"), P.gen("B")
    Q = PolyRing(ZZ, ("t",))
    sub = {"__ring__": Q, "A": Q.gen("t"), "B": Q.one(),
           "__coeff__": lambda c: Q.from_int(c)}
    assert (A * B + B).substitute(sub) == Q.gen("t") + Q.one()


def test_monomials_of_weighted_degree():
    assert sorted(monomials_of_weighted_degree((1, 3), 3)) == [(0, 1), (3, 0)]
    assert monomials_of_weighted_degree((2, 6), 7) == []
    assert len(monomials_of_weighted_degree((2, 2, 6), 8)) == 7  # 5 with c=0, 2 with c=1


@pytest.mark.parametrize("weights", [(), (1,), (2,), (1, 3), (2, 6), (2, 2, 6),
                                     (1, 3, 7, 15, 31), (2, 6, 2, 6, 14, 30)])
def test_monomials_match_the_unpruned_enumerator(weights):
    """The pruned enumeration gives the unpruned one's list in its order."""
    for d in range(-3, 61):
        assert monomials_of_weighted_degree(weights, d) == \
            oracles.monomials_of_weighted_degree_oracle(weights, d), d


@pytest.mark.parametrize("weights", [(0,), (1, 0), (0, 3), (2, -1)])
def test_monomials_refuse_a_weight_below_one(weights):
    for d in (-1, 0, 5):
        for enumerate_ in (monomials_of_weighted_degree,
                           oracles.monomials_of_weighted_degree_oracle):
            with pytest.raises(ValueError, match="weights must be positive"):
                enumerate_(weights, d)


def test_f2_machinery():
    rows = [0b101, 0b011, 0b110]
    basis, pivots = f2_rref(rows)
    assert len(basis) == 2
    sol = f2_solve([0b101, 0b011], 0b110)
    assert sol == 0b11
    null = f2_nullspace([0b101, 0b011, 0b110])
    assert len(null) == 1 and null[0] == 0b111


def test_f2_mask_and_rank_read_integer_columns_mod_2():
    """Odd entries, negative ones too, set their bit; the rank is over GF(2),
    so the integer-independent columns (1, 1) and (1, -1) have rank 1 and an
    all-even column counts for nothing."""
    assert f2_mask([3, -1, 2, 0, -4, 5]) == 0b100011
    assert f2_rank([[1, 1], [1, -1]]) == 1
    assert f2_rank([[2, 4], [0, -6]]) == 0
    assert f2_rank([[1, 0, 1], [0, 1, 1], [1, 1, 0], [3, 2, 7]]) == 2
    assert f2_rank([[1, 0, 1], [0, 1, 1], [1, 1, 1]]) == 3
    assert f2_rank([]) == 0


def test_int_kernel_saturated():
    # columns of the map (x, y) -> 2x + 2y: kernel generated by (1, -1), not (2, -2)
    ker = int_kernel([[2], [2]], 2)
    assert len(ker) == 1
    assert sorted(map(abs, ker[0])) == [1, 1]


def test_smith_and_local_structure():
    diag = smith_normal_form([[2, 0], [0, 6]])
    assert sorted(diag) == [2, 6]
    free, tors = p_local_structure(diag, 3, 2)
    assert free == 1 and tors == [1, 1]


def test_solve_int_exact():
    assert solve_int_exact([[2, 0], [0, 3]], [4, 3]) == [2, 1]
    assert solve_int_exact([[2]], [1]) is None


def test_solve_int_exact_needs_no_integral_rational_solution():
    # 2a + 3b = 1 has no solution with b = 0, but (-1, 1) solves it over Z
    x = solve_int_exact([[2], [3]], [1])
    assert x is not None and 2 * x[0] + 3 * x[1] == 1
    assert solve_int_exact([[2, 4], [6, 2]], [1, 1]) is None
    cols = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    x = solve_int_exact(cols, [3, 7, 10])
    assert [sum(x[j] * cols[j][i] for j in range(3)) for i in range(3)] == [3, 7, 10]
    assert solve_int_exact([[0, 0]], [0, 0]) == [0]


def test_fraction_field_inverse_is_exact():
    inv = QQ.inv(3)
    assert isinstance(inv, Fraction) and inv == Fraction(1, 3)


def test_solve_many_on_int_system_is_exact():
    sols = FieldOps(QQ).solve_many([[3, 0], [0, 2]], [[1, 1], [6, 4]])
    assert sols == [[Fraction(1, 3), Fraction(1, 2)], [2, 2]]
    assert all(isinstance(v, (int, Fraction)) for x in sols for v in x)


# -- the sparse eliminations against the dense ones they replaced ---------------

@hs.composite
def sparse_int_matrices(draw):
    """0-30 rows and columns, 5-40 % nonzero, entries in [-3, 3], with the
    density capped near one nonzero per row or column of the shorter side.
    Denser draws send both the sparse and the dense eliminations into
    entries of thousands of digits (no modular reduction), so that a draw can
    run for minutes; the Koszul test below covers denser real input."""
    rows = draw(hs.integers(0, 30))
    cols = draw(hs.integers(0, 30))
    density = draw(hs.floats(0.05, max(0.05, min(0.4, 1 / max(min(rows, cols), 1)))))
    rng = random.Random(draw(hs.integers(0, 2 ** 32 - 1)))
    return [[rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < density else 0
             for _ in range(cols)] for _ in range(rows)]


# the first remainder, [1, -1, 1], replaces the pivot row [2, 1, 0] mid-pass
SWAPS_PIVOT = [[2, 1, 0], [3, 0, 1], [0, 2, 1]]


@settings(max_examples=150, deadline=None)
@given(sparse_int_matrices())
@example(SWAPS_PIVOT)
def test_hnf_rows_matches_oracle(mat):
    assert hnf_rows(mat) == oracles.hnf_rows_oracle(mat)


@settings(max_examples=150, deadline=None)
@given(sparse_int_matrices())
@example(SWAPS_PIVOT)
def test_smith_normal_form_matches_oracle(mat):
    assert smith_normal_form(mat) == oracles.smith_normal_form_oracle(mat)


@settings(max_examples=100, deadline=None)
@given(mat=sparse_int_matrices(), data=hs.data())
def test_solve_many_matches_oracle(mat, data):
    """Columns of a sparse matrix, one of them repeated as the sum of two
    others (rank-deficient), against targets in the span (consistent) and
    random ones (inconsistent when the rank falls short of the height)."""
    height = len(mat)
    cols = [list(c) for c in zip(*mat)] if height else []
    if len(cols) >= 2:
        cols.append([a + b for a, b in zip(cols[0], cols[1])])
    coeffs = data.draw(hs.lists(hs.lists(hs.integers(-3, 3), min_size=len(cols),
                                         max_size=len(cols)), max_size=3))
    targets = [[sum(c * col[i] for c, col in zip(cs, cols)) for i in range(height)]
               for cs in coeffs]
    targets += data.draw(hs.lists(hs.lists(hs.integers(-3, 3), min_size=height,
                                           max_size=height), max_size=3))
    for R, cast in ((QQ, int), (PrimeField(5), lambda v: v % 5)):
        C = [[cast(v) for v in col] for col in cols]
        T = [[cast(v) for v in t] for t in targets]
        got = FieldOps(R).solve_many(C, T)
        assert got == oracles.solve_many_oracle(R, C, T)
        assert all(isinstance(v, (int, Fraction)) for x in got if x for v in x)


def test_koszul_eliminations_match_oracles(monkeypatch):
    """Every elimination of the Koszul Tor at N = 16, against its oracle."""
    from chromalg import bp, linalg
    seen = set()
    hnf, snf, solve = linalg.hnf_rows, linalg.smith_normal_form, FieldOps.solve_many

    def hnf_checked(mat):
        seen.add("hnf")
        out = hnf(mat)
        assert out == oracles.hnf_rows_oracle(mat)
        return out

    def snf_checked(mat):
        seen.add("smith")
        out = snf(mat)
        assert out == oracles.smith_normal_form_oracle(mat)
        return out

    def solve_checked(self, columns, targets):
        seen.add("solve")
        out = solve(self, columns, targets)
        assert out == oracles.solve_many_oracle(self.ring, columns, targets)
        return out

    monkeypatch.setattr(linalg, "hnf_rows", hnf_checked)
    monkeypatch.setattr(linalg, "smith_normal_form", snf_checked)
    monkeypatch.setattr(FieldOps, "solve_many", solve_checked)
    seq, module, _ = bp.bp2_shadow_sequence(16)
    bp.koszul_tor(seq, module, 16)
    assert seen == {"hnf", "smith", "solve"}
