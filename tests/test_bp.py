import random
from fractions import Fraction

import pytest

import oracles
from chromalg import bp, convert, fgl, steenrod
from chromalg.errors import IntegralityFailure
from chromalg.poly import Poly, PolyRing, monomials_of_weighted_degree
from chromalg.rings import PrimeField, QQ, ZZ


@pytest.fixture(scope="module")
def table():
    return bp.right_unit(2, 3)


def test_right_unit_v1(table):
    P = table.ring
    assert table.eta_v[1] == P.gen("v1") + 2 * P.gen("t1")


def test_right_unit_v2_exact(table):
    P = table.ring
    v1, v2, t1, t2 = (P.gen(g) for g in ("v1", "v2", "t1", "t2"))
    expected = v2 + 2 * t2 - 4 * (t1 ** 3) - 5 * v1 * (t1 * t1) - 3 * (v1 * v1) * t1
    assert table.eta_v[2] == expected


def test_right_unit_invariance(table):
    P = table.ring
    for k, kill in ((1, ()), (2, ("v1",)), (3, ("v1", "v2"))):
        lhs = bp.reduce_poly_modulo(table.eta_v[k], 2, kill_gens=kill)
        rhs = bp.reduce_poly_modulo(P.gen(f"v{k}"), 2, kill_gens=kill)
        assert lhs == rhs


def test_regular_sequence_bp2():
    seq, module, P = bp.bp2_shadow_sequence(20)
    rep = bp.regular_sequence_check(seq, module, 20)
    assert rep.regular, rep.failures


def test_regular_sequence_repeated_generator_fails():
    P = PolyRing(ZZ, ("v1",), (2,))
    rep = bp.regular_sequence_check(
        [bp.poly_element(P.gen("v1"), "v1"), bp.poly_element(P.gen("v1"), "v1")],
        bp.GradedModule(P, []), 8)
    assert not rep.regular
    step, degree, witness = rep.failures[0]
    assert step == 1 and degree == 0


def test_regular_sequence_two_on_f2_fails():
    P = PolyRing(PrimeField(2), ("t1",), (2,))
    rep = bp.regular_sequence_check([bp.scalar_element(P, 2, "p")],
                                    bp.GradedModule(P, []), 8)
    assert not rep.regular


def test_regular_sequence_after_odd_scalar_is_unsupported():
    P = PolyRing(ZZ, ("x", "y"), (2, 2))
    x, y = P.gen("x"), P.gen("y")
    for q in (3, 5):
        seq = [bp.scalar_element(P, q), bp.poly_element(x + y, "x+y"),
               bp.poly_element(x - y, "x-y")]
        with pytest.raises(ValueError):
            bp.regular_sequence_check(seq, bp.GradedModule(P, []), 6)


def test_regular_sequence_after_two_reports_mod_2_failure():
    P = PolyRing(ZZ, ("x", "y"), (2, 2))
    x, y = P.gen("x"), P.gen("y")
    seq = [bp.scalar_element(P, 2), bp.poly_element(x + y, "x+y"),
           bp.poly_element(x - y, "x-y")]
    rep = bp.regular_sequence_check(seq, bp.GradedModule(P, []), 6)
    assert not rep.regular
    assert rep.failures[0][:2] == (2, 0)


def test_regular_sequence_f2_dependent_element_fails():
    # over F_2, y+z = (x+z) + (x+y): it kills the class of 1 in F_2[x,y,z]/(x+z, x+y)
    P = PolyRing(PrimeField(2), ("x", "y", "z"), (1, 1, 1))
    x, y, z = (P.gen(g) for g in "xyz")
    seq = [bp.poly_element(x + z, "x+z"), bp.poly_element(x + y, "x+y"),
           bp.poly_element(y + z, "y+z")]
    rep = bp.regular_sequence_check(seq, bp.GradedModule(P, []), 4)
    assert [f[:2] for f in rep.failures] == [(2, 0)]


def _random_homogeneous(rng, P, coeffs):
    # at most three terms: the lattice HNF's entries grow on denser input
    monos = monomials_of_weighted_degree(P.weights, rng.randint(1, 2))
    picked = rng.sample(monos, rng.randint(1, min(3, len(monos))))
    return Poly(P, {m: rng.choice(coeffs) for m in picked})


def test_regular_sequence_f2_agrees_with_koszul_h1():
    # Koszul criterion: a homogeneous sequence of positive degree is regular
    # exactly when H_1 vanishes
    P = PolyRing(PrimeField(2), ("x", "y", "z"), (1, 1, 1))
    module = bp.GradedModule(P, [])
    rng = random.Random(7)
    N = 5
    for _ in range(150):
        seq = [bp.poly_element(_random_homogeneous(rng, P, [1]), f"s{i}")
               for i in range(rng.randint(1, 3))]
        rep = bp.regular_sequence_check(seq, module, N)
        tor = bp.koszul_tor(seq, module, N)
        assert rep.regular == all(tor.is_zero(1, d) for d in range(N + 1)), \
            ([str(e.poly) for e in seq], rep.failures)


def test_regular_sequence_odd_characteristic_is_unsupported():
    P = PolyRing(PrimeField(3), ("x",), (1,))
    with pytest.raises(ValueError):
        bp.regular_sequence_check([bp.poly_element(P.gen("x"), "x")],
                                  bp.GradedModule(P, []), 3)


def test_regular_sequence_zero_scalar_fails():
    P = PolyRing(ZZ, ("x",), (1,))
    rep = bp.regular_sequence_check([bp.scalar_element(P, 0)], bp.GradedModule(P, []), 3)
    assert [f[:2] for f in rep.failures] == [(0, 0)]


@pytest.mark.parametrize("lead_two", [False, True])
def test_regular_sequence_over_z_matches_oracle(lead_two):
    P = PolyRing(ZZ, ("x", "y", "z"), (1, 1, 1))
    module = bp.GradedModule(P, [])
    rng = random.Random(3 + lead_two)
    irregular = 0
    for _ in range(60):
        seq = [bp.poly_element(_random_homogeneous(rng, P, [-2, -1, 1, 2]), f"s{i}")
               for i in range(rng.randint(1, 3))]
        if lead_two:
            seq.insert(0, bp.scalar_element(P, 2))
        rep = bp.regular_sequence_check(seq, module, 5)
        assert rep.failures == oracles.regular_sequence_check_oracle(seq, module, 5), \
            [str(e.poly) for e in seq]
        irregular += not rep.regular
    assert 0 < irregular < 60


def test_koszul_regular_case():
    seq, module, P = bp.bp2_shadow_sequence(20)
    tor = bp.koszul_tor(seq, module, 20)
    for (s, d) in tor.entries:
        if s > 0:
            assert tor.is_zero(s, d), (s, d)
    twts = [w for g, w in zip(P.gens, P.weights) if g.startswith("t")]
    assert [tor.dim(0, d) for d in range(21)] == bp.fp_poly_dims(twts, 20)


def test_koszul_image_outside_kernel_raises(monkeypatch):
    # bp2_shadow_sequence(8) reads 129 integer coefficients to build its
    # differentials; the last one is a coefficient of d_3 at degree 8.  One
    # added to it makes d_2 d_3 != 0, so the image of d_3 leaves ker d_2.
    seq, module, P = bp.bp2_shadow_sequence(8)
    real = bp._poly_int_coeff
    calls = []

    def perturbed(c):
        calls.append(c)
        return real(c) + (len(calls) == 129)

    monkeypatch.setattr(bp, "_poly_int_coeff", perturbed)
    with pytest.raises(IntegralityFailure):
        bp.koszul_tor(seq, module, 8)
    assert len(calls) == 129
    monkeypatch.undo()
    tor = bp.koszul_tor(seq, module, 8)
    dims = bp.fp_poly_dims([w for g, w in zip(P.gens, P.weights) if g.startswith("t")], 8)
    for (s, d), entry in tor.entries.items():
        assert entry == ((0, [1] * dims[d]) if s == 0 else (0, [])), (s, d)
    assert (3, 8) in tor.entries


def test_koszul_exterior_pattern():
    F2 = PrimeField(2)
    P = PolyRing(F2, ("t1", "t2", "t3"), (2, 6, 14))
    module = bp.GradedModule(P, [])
    seq = [bp.SequenceElement(nm, d, P.zero())
           for nm, d in (("p", 0), ("v1", 2), ("v2", 6), ("v3", 14))]
    tor = bp.koszul_tor(seq, module, 16)
    assert tor.total_dims(16) == bp.exterior_pattern_dims([2, 6, 14], [1, 3, 7, 15], 16)


def test_koszul_f2_ranks_taken_mod_2():
    # over Q, (x+z, x+y, y+z) is regular; over F_2 the third is the sum of the
    # first two, so F_2[x,y,z]/(x+z, x+y) = F_2[x] and H_1 has one class per degree
    P = PolyRing(PrimeField(2), ("x", "y", "z"), (1, 1, 1))
    x, y, z = (P.gen(g) for g in "xyz")
    seq = [bp.poly_element(x + z, "x+z"), bp.poly_element(x + y, "x+y"),
           bp.poly_element(y + z, "y+z")]
    tor = bp.koszul_tor(seq, bp.GradedModule(P, []), 3)
    for d in (1, 2, 3):
        assert (tor.dim(0, d), tor.dim(1, d), tor.dim(2, d)) == (1, 1, 0), d


def test_koszul_odd_characteristic_is_unsupported():
    P = PolyRing(PrimeField(3), ("x",), (1,))
    with pytest.raises(ValueError):
        bp.koszul_tor([bp.poly_element(P.gen("x"), "x")], bp.GradedModule(P, []), 3)


def test_koszul_empty_sequence_returns_module():
    F2 = PrimeField(2)
    P = PolyRing(F2, ("t1", "t2"), (2, 6))
    tor = bp.koszul_tor([], bp.GradedModule(P, []), 10)
    assert [tor.dim(0, d) for d in range(11)] == bp.fp_poly_dims([2, 6], 10)


@pytest.mark.parametrize("n,p,N", [(1, 2, 24), (2, 2, 32), (1, 3, 30), (0, 2, 12)])
def test_tor_degeneration(n, p, N):
    rep = bp.tor_degeneration_identity(n, p, N)
    assert rep["truncated_equal"], (n, p)
    assert rep["full_equal"], (n, p)


@pytest.mark.parametrize("p", [3, 5])
def test_tor_degeneration_odd_p_sides_keep_parent_values(p):
    for n in range(3):
        for N in range(41):
            rep = bp.tor_degeneration_identity(n, p, N)
            assert rep["truncated"][1] == oracles.bstar_dims_oracle(n, p, N), (n, N)
            assert rep["full"][1] == oracles.dual_steenrod_dims_odd_oracle(p, N), (n, N)
            assert rep["truncated_equal"] and rep["full_equal"], (n, N)


def test_tor_degeneration_odd_p_fails_on_shifted_tau(monkeypatch):
    # the B_*(n) and dual Steenrod sides are a monomial count; with tau's
    # degree off by one they no longer match the convolution on the other side
    count = steenrod.monomial_count_dims

    def shifted(poly_weights, ext_degrees, N):
        return count(poly_weights, [ext_degrees[0] + 1] + ext_degrees[1:], N)

    monkeypatch.setattr(steenrod, "monomial_count_dims", shifted)
    rep = bp.tor_degeneration_identity(1, 3, 30)
    assert not rep["truncated_equal"]
    assert not rep["full_equal"]


def test_degree_zero_trivial():
    rep = bp.tor_degeneration_identity(1, 2, 0)
    assert rep["truncated"][0][0] == 1 and rep["full"][0][0] == 1


def test_connectivity_evenness():
    for n in (1, 2):
        assert steenrod.evenness_below(n, 2 ** (n + 2) + 4)


def test_reduce_poly_modulo_reads_rationals_through_their_residue():
    """A rational coefficient with odd denominator reduces to its residue
    mod 2, (1/3) v1 -> v1; an even denominator has no residue and raises."""
    P = PolyRing(QQ, ("v1",), (2,))
    third = Poly(P, {(1,): Fraction(1, 3)})
    got = bp.reduce_poly_modulo(third, 2)
    assert got == bp.reduce_poly_modulo(P.gen("v1"), 2)
    assert got.terms == {(1,): 1} and type(got.terms[(1,)]) is int
    with pytest.raises(IntegralityFailure):
        bp.reduce_poly_modulo(Poly(P, {(1,): Fraction(1, 2)}), 2)


def test_reduce_poly_modulo_keeps_its_callers_values(table):
    """Terms and types as the int(c) % p loop gives them, on the right units
    and on the family's Hazewinkel generators."""
    F = fgl.universal_family_fgl(4)
    data = fgl.hazewinkel_generators(F, 2, 2)
    A, B = F.ring.gen("A"), F.ring.gen("B")
    cases = [(table.eta_v[k], kill) for k, kill in ((1, ()), (2, ("v1",)), (3, ("v1", "v2")))]
    cases += [(table.eta_v[3], ()), (data.v[0], ()), (data.v[1], ("A",)), (A, ()),
              (B + 3 * A ** 3, ())]
    for p in (2, 3):
        for poly, kill in cases:
            got = bp.reduce_poly_modulo(poly, p, kill_gens=kill)
            want = oracles.reduce_poly_modulo_oracle(poly, p, kill_gens=kill)
            assert got.terms == want.terms
            assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]


def test_reduce_poly_modulo_reduces_each_coefficient_once(table, monkeypatch):
    """eta(v3) mod 2 (22 terms, 9 kept) makes one fraction_mod call per
    term, 22, not one more per kept term; same terms and types as the loop."""
    poly = table.eta_v[3]
    want = oracles.reduce_poly_modulo_oracle(poly, 2)
    fraction_mod, calls = convert.fraction_mod, []

    def counted(q, m):
        calls.append(q)
        return fraction_mod(q, m)

    monkeypatch.setattr(convert, "fraction_mod", counted)
    got = bp.reduce_poly_modulo(poly, 2)
    assert len(poly.terms) == len(calls) == 22 and len(got.terms) == 9
    assert got.terms == want.terms
    assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]
