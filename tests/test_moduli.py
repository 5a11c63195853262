import random

import pytest

from chromalg import moduli
from chromalg.errors import AlgebraError
from chromalg.moduli import QSeries


def test_h0_examples():
    assert moduli.h0_rank(0) == 1
    assert moduli.h0_basis(3) == [(3, 0), (0, 1)]
    assert moduli.h0_rank(-1) == 0


def test_h1_examples():
    assert moduli.h1_from_cech(-4) == [(-1, -1)]
    for n in range(-3, 20):
        assert moduli.h1_rank(n) == 0
    assert moduli.h1_from_cech(-8) == [(-5, -1), (-2, -2)]


def test_h1_cech_matches_count_deep():
    for n in range(-40, 1):
        assert len(moduli.h1_from_cech(n)) == moduli.h1_rank(n)


def test_annihilation():
    rep = moduli.annihilation_check()
    assert rep["A*D"] and rep["B*D"] and rep["D_not_coboundary"]


def test_vanishing_and_euler():
    assert moduli.vanishing_above_one()
    for n in range(-40, 41):
        assert moduli.euler_characteristic_check(n)


def test_h0_ring_structure():
    for m in range(6):
        for n in range(6):
            assert moduli.h0_ring_check(m, n)


def test_chart_transition():
    rep = moduli.chart_transition_check(8)
    assert rep["curves"] and rep["fgl"]


def test_eisenstein_values():
    e4, e6, delta, j, j_inv = moduli.eisenstein_j(16)
    assert e4[0] == 1 and e4[1] == 240 and e4[2] == 240 * 9
    assert e6[0] == 1 and e6[1] == -504
    assert [delta[n] for n in range(1, 5)] == [1, -24, 252, -1472]
    assert delta[0] == 0


def test_j_expansions():
    _, _, _, j, j_inv = moduli.eisenstein_j(16)
    assert j_inv[0] == 0 and j_inv[1] == 1 and j_inv[2] == -744
    assert j[-1] == 1 and j[0] == 744 and j[1] == 196884


def test_delta_integrality_guard():
    # 1728-divisibility is asserted during construction; a wrong normalization
    # would raise
    q = QSeries({0: 1, 1: 1}, 4)
    with pytest.raises(AlgebraError):
        q.divide_exact(2)


def test_psi_operator_and_defect():
    assert moduli.psi_operator(QSeries({1: 1}, 8)) == QSeries({2: 1}, 8)
    assert moduli.psi_defect(QSeries({0: 9}, 8)).coeffs == {}
    rng = random.Random(0)
    for _ in range(100):
        f = QSeries({n: rng.randint(-99, 99) for n in range(12)}, 12)
        assert moduli.psi_defect(f)[0] == 0


def test_qseries_inverse():
    f = QSeries({0: 1, 1: -24}, 6)
    g = f.inverse()
    assert (f * g) == QSeries({0: 1}, 6)
    assert g[3] == 24 ** 3
