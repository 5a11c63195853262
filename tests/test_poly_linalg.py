import pytest

from chromalg.linalg import (f2_nullspace, f2_rref, f2_solve, int_kernel,
                             p_local_structure, smith_normal_form,
                             solve_int_exact)
from chromalg.poly import PolyRing, monomials_of_weighted_degree
from chromalg.rings import ZZ


def test_weighted_poly_basics():
    P = PolyRing(ZZ, ("A", "B"), weights=(1, 3))
    A, B = P.gen("A"), P.gen("B")
    f = A ** 3 + B
    assert f.is_homogeneous() and f.wdegree() == 3
    g = f + A
    assert not g.is_homogeneous()
    assert g.homogeneous_part(3) == f
    assert g.homogeneous_part(1) == A


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


def test_f2_machinery():
    rows = [0b101, 0b011, 0b110]
    basis, pivots = f2_rref(rows)
    assert len(basis) == 2
    sol = f2_solve([0b101, 0b011], 0b110, 3)
    assert sol == 0b11
    null = f2_nullspace([0b101, 0b011, 0b110], 3)
    assert len(null) == 1 and null[0] == 0b111


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
