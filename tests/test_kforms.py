from fractions import Fraction

import pytest

from chromalg import kforms
from chromalg.errors import IntegralityFailure
from chromalg.rings import Z_inverted, ZZ, omega_ring, sqrt_minus3


@pytest.fixture(scope="module")
def T():
    return omega_ring()


@pytest.fixture(scope="module")
def sigma(T):
    return kforms.omega_conjugation(T)


def test_sigma_involution_and_ring_map(T, sigma):
    w = T.gen()
    assert T.eq(sigma(sigma(w)), w)
    a = T.add(T.one(), w)
    b = T.add(T.from_int(2), T.mul(w, w))
    assert T.eq(sigma(T.mul(a, b)), T.mul(sigma(a), sigma(b)))


def test_eigenspaces(T, sigma):
    plus = kforms.eigenspace(T, sigma, +1)
    assert plus == [(Fraction(1), Fraction(0))]
    minus = kforms.eigenspace(T, sigma, -1)
    assert len(minus) == 1
    a, b = minus[0]
    assert b == 2 * a          # 1 + 2w direction
    # degree twist flips the relevant eigenspace
    deg2 = kforms.eigenspace(T, sigma, +1, degree=2)
    assert deg2 == minus


def test_c2_cohomology_cases(T, sigma):
    coh = kforms.c2_cohomology(T, sigma)
    assert coh["H1"] == (0, []) and coh["H2"] == (0, [])
    assert kforms.c2_cohomology_trivial_Z() == {"H1": (0, []), "H2": (0, [2])}
    assert kforms.c2_cohomology_F2_trivial()["H1"] == (0, [2])


def test_c2_cohomology_refuses_an_action_that_is_not_an_involution(T):
    # sigma(a + bw) = (b - a) - bw has sigma^2 != 1: an image of sigma - 1
    # leaves the kernel lattice of the norm
    B = T.base
    bad = lambda x: (B.sub(x[1], x[0]), B.neg(x[1]))
    assert not T.eq(bad(bad(T.gen())), T.gen())
    with pytest.raises(IntegralityFailure):
        kforms.c2_cohomology(T, bad)


def test_c2_cohomology_of_the_sign_action_on_Z():
    assert kforms.c2_lattice_cohomology([[-1]]) == {"H1": (0, [2]), "H2": (0, [])}


def test_c2_f2_cohomology_of_the_trivial_action():
    assert kforms.c2_f2_cohomology([[1]]) == {"H1": (0, [2]), "H2": (0, [2])}
    assert kforms.c2_cohomology_F2_trivial() == {"H1": (0, [2]), "H2": (0, [2])}


def test_c2_f2_cohomology_of_the_swap_vanishes():
    # F_2[C_2] is free: ker Norm = im(sigma - 1), the line spanned by (1, 1)
    assert kforms.c2_f2_cohomology([[0, 1], [1, 0]]) == {"H1": (0, []), "H2": (0, [])}


def test_c2_f2_cohomology_refuses_an_action_that_is_not_an_involution_mod_2():
    # sigma(e1) = e2, sigma(e2) = e1 + e2 has order 3 mod 2
    with pytest.raises(ValueError):
        kforms.c2_f2_cohomology([[0, 1], [1, 1]])


def test_twisted_k_graded_ring(T, sigma):
    rep = kforms.twisted_k_check(T, sigma, 16)
    assert rep["ok"], rep
    s3 = sqrt_minus3(T)
    assert T.eq(kforms.twisted_k_generator(T, 2), T.from_int(-3))
    assert T.eq(T.mul(kforms.twisted_k_generator(T, -1), s3), T.one())


def test_cusp_restriction_signs():
    plus = kforms.cusp_restriction_check(+1)
    assert plus["found"] and plus["sub_disc_zero"]
    minus = kforms.cusp_restriction_check(-1)
    assert not minus["found"]
    assert not minus["sub_disc_zero"]
    assert "smooth" in minus["residual"]


def test_cusp_restriction_rescaled():
    assert kforms.cusp_restriction_rescaled(1)
    assert kforms.cusp_restriction_rescaled(2)


@pytest.mark.parametrize("p", [3, 5])
def test_frobenius_obstruction(p):
    rep = kforms.frobenius_lift_obstruction(p)
    assert rep["all_fail"]
    assert rep["contrast_Zp_identity_works"]
    assert rep["candidates"] == list(range(1, p))


def test_discriminant_classification():
    assert kforms.discriminant_classification(Z_inverted(3), Fraction(3),
                                              Fraction(3)) == "form"
    assert kforms.discriminant_classification(ZZ, 3, 3) == "degenerate"
    assert kforms.discriminant_classification(ZZ, 1, 0) == "form"
