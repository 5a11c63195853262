import random

import pytest

from chromalg import moduli
from chromalg.checks import CheckFailure
from chromalg.errors import AlgebraError, NotInvertible, TruncationError
from chromalg.rings import ZZ
from chromalg.series import SeriesCtx, SeriesRing

from oracles import QSeries as Oracle
from oracles import eisenstein_j_oracle, h0_basis_oracle, h1_basis_oracle, psi_defect_oracle
from test_elliptic import run_check


def q_series(coeffs: dict, prec: int):
    """The integer series in q with these coefficients, known below q^prec."""
    return SeriesCtx(ZZ, ("q",), prec).series({(n,): c for n, c in coeffs.items()})


def same(f, ora):
    """The same precision and the same coefficients, not `==`."""
    return f.prec == ora.prec and {n: c for (n,), c in f.terms.items()} == ora.coeffs


def seeded_series(seed: int, count: int):
    """(oracle, Series) pairs for `count` integer q-series, some coefficients
    zero, known below q^1 .. q^20."""
    rng = random.Random(seed)
    for _ in range(count):
        prec = rng.randint(1, 20)
        coeffs = {n: rng.choice([0, rng.randint(-99, 99)]) for n in range(prec)}
        yield Oracle(coeffs, prec), q_series(coeffs, prec)


def test_h0_examples():
    assert moduli.h0_rank(0) == 1
    assert moduli.h0_basis(3) == [(3, 0), (0, 1)]
    assert moduli.h0_rank(-1) == 0


def test_h1_examples():
    assert moduli.h1_from_cech(-4) == [(-1, -1)]
    for n in range(-3, 20):
        assert moduli.h1_rank(n) == 0
    assert moduli.h1_from_cech(-8) == [(-5, -1), (-2, -2)]


def test_bases_match_the_loops():
    for n in range(-60, 61):
        assert moduli.h0_basis(n) == h0_basis_oracle(n), n
        assert moduli.h1_basis(n) == h1_basis_oracle(n), n


def test_h1_cech_matches_count_deep():
    for n in range(-40, 1):
        assert len(moduli.h1_from_cech(n)) == moduli.h1_rank(n)


def test_annihilation():
    rep = moduli.annihilation_check()
    assert rep["A*D"] and rep["B*D"] and rep["D_not_coboundary"]


def test_vanishing_and_euler():
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
    e4, e6, delta, _, _ = moduli.eisenstein_j(16)
    assert [e4.coefficient((n,)) for n in range(3)] == [1, 240, 240 * 9]
    assert [e6.coefficient((n,)) for n in range(2)] == [1, -504]
    assert [delta.coefficient((n,)) for n in range(5)] == [0, 1, -24, 252, -1472]


def test_j_expansions():
    _, _, _, q_j, j_inv = moduli.eisenstein_j(16)
    assert [j_inv.coefficient((n,)) for n in range(3)] == [0, 1, -744]
    # j = q^-1 + 744 + 196884 q + ...
    assert [q_j.coefficient((n,)) for n in range(3)] == [1, 744, 196884]


@pytest.mark.parametrize("n", [2, 3, 8, 16, 40])
def test_q_expansions_match_the_dict_oracle(n):
    """E4, E6, Delta and j^-1 known below q^n, and q*j below q^(n-1), equal
    the dict q-series at the same precision, from eisenstein_j and, for the
    first three, from eisenstein; a coefficient at or above it raises."""
    e4, e6, delta, j, j_inv = eisenstein_j_oracle(n)
    got = moduli.eisenstein_j(n)
    for f, ora in zip(got, (e4, e6, delta, j.shift(1), j_inv)):
        assert same(f, ora)
        with pytest.raises(TruncationError):
            f.coefficient((f.prec,))
    assert got[3].prec == n - 1
    for f, ora in zip(moduli.eisenstein(n), (e4, e6, delta)):
        assert same(f, ora)


def test_delta_integrality_guard(monkeypatch):
    """Negative control: with sigma_5 off by one, E4^3 - E6^2 is not divisible
    by 1728, so Delta, j and j^-1 are not built."""
    for cid in ("mf.eisenstein", "mf.j-inverse"):
        run_check(cid)
    sigma = moduli._sigma
    monkeypatch.setattr(moduli, "_sigma", lambda k, n: sigma(k, n) + (k == 5))
    for build in (moduli.eisenstein, moduli.eisenstein_j):
        with pytest.raises(AlgebraError, match="not divisible by 1728"):
            build(16)
    for cid in ("mf.eisenstein", "mf.j-inverse"):
        with pytest.raises(AlgebraError):
            run_check(cid)


def test_psi_defect_fails_with_psi_as_the_identity(monkeypatch):
    """Negative control: f(q) in place of f(q^2)."""
    run_check("mf.psi-defect")
    monkeypatch.setattr(moduli, "psi_operator", lambda f: f)
    with pytest.raises(CheckFailure, match=r"psi\(q\) = q\^2"):
        run_check("mf.psi-defect")


def test_psi_operator_and_defect():
    assert moduli.psi_operator(q_series({1: 1}, 8)) == q_series({2: 1}, 8)
    assert moduli.psi_defect(q_series({0: 9}, 8)).is_zero()
    rng = random.Random(0)
    for _ in range(100):
        f = q_series({n: rng.randint(-99, 99) for n in range(12)}, 12)
        assert moduli.psi_defect(f).coefficient((0,)) == 0


def test_psi_defect_matches_oracle():
    for ora, f in seeded_series(1, 100):
        assert same(moduli.psi_defect(f), psi_defect_oracle(ora))


def test_psi_operator_doubles_the_known_precision():
    g = moduli.psi_operator(q_series({1: 1, 2: -3}, 5))
    assert g.prec == 10 and g.terms == {(2,): 1, (4,): -3}


def test_divide_by_an_integer_matches_oracle():
    """The coefficientwise quotient that builds Delta: exact where the dict
    oracle divides, and None where it raises."""
    for k, (ora, f) in enumerate(seeded_series(2, 100)):
        d = k % 6 + 1
        Q = SeriesRing(ZZ, "q", f.prec)
        assert same(Q.divide(f.scale(d), Q.from_int(d)), ora)
        got = Q.divide(f, Q.from_int(d))
        try:
            want = ora.divide_exact(d)
        except AlgebraError:
            assert got is None
        else:
            assert same(got, want)


def test_qseries_inverse():
    f = q_series({0: 1, 1: -24}, 6)
    g = f.inverse()
    assert (f * g) == q_series({0: 1}, 6)
    assert g.coefficient((3,)) == 24 ** 3


def test_inverse_refuses_a_non_unit_constant_term():
    rng = random.Random(3)
    for _, f in seeded_series(3, 60):
        c = rng.choice([-1, 1]) * rng.randint(2, 30)
        g = f + q_series({0: c - f.coefficient((0,))}, f.prec)
        with pytest.raises(NotInvertible):
            g.inverse()
