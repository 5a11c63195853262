import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import oracles
from chromalg import steenrod as st
from chromalg.checks import REGISTRY, CheckFailure
from chromalg.linalg import f2_reduce, f2_rref
from chromalg.report import RunConfig

# every Milnor monomial of degree <= 30, with its degree
POOL = [(m, st.mono_degree(m)) for d in range(31) for m in st.basis(d)]


def test_basis_examples():
    assert st.basis(0) == ((),)
    assert st.basis(3) == ((0, 1), (3,))
    assert len(st.basis(7)) == 4
    assert st.basis(-1) == ()


def test_dims_match_poincare_product():
    assert st.dims_table(48) == st.poincare_product_dims(48)


def test_product_examples():
    assert st.milnor_product(st.sq(1), st.sq(1)) == frozenset()
    Q0, Q1 = st.milnor_primitive(0), st.milnor_primitive(1)
    assert st.milnor_product(Q0, Q1) ^ st.milnor_product(Q1, Q0) == frozenset()
    assert st.milnor_product(st.UNIT, Q1) == Q1


def test_product_associative_random():
    rng = random.Random(0)
    pool = [m for d in range(1, 12) for m in st.basis(d)]
    for _ in range(80):
        a, b, c = (frozenset({rng.choice(pool)}) for _ in range(3))
        assert st.milnor_product(st.milnor_product(a, b), c) == \
            st.milnor_product(a, st.milnor_product(b, c))


def test_milnor_vs_operator_oracle():
    rng = random.Random(2)
    nv = 3
    polys = [frozenset({(1, 1, 1)}), frozenset({(2, 1, 0)}),
             frozenset({(1, 0, 0), (0, 1, 1)})]
    pool = [m for d in range(1, 8) for m in st.basis(d)]
    tested = 0
    while tested < 15:
        r, s = rng.choice(pool), rng.choice(pool)
        if st.mono_degree(r) + st.mono_degree(s) > 10:
            continue
        tested += 1
        prod = st.milnor_product_mono(r, s)
        for tp in polys:
            assert st.element_on_poly(prod, tp, nv) == \
                st.milnor_on_poly(r, st.milnor_on_poly(s, tp, nv), nv)


def test_product_matches_oracle_through_degree_30():
    pairs = [(a, b) for a, da in POOL for b, db in POOL if da + db <= 30]
    assert len(pairs) == 16468
    for a, b in pairs:
        assert st.milnor_product_mono(a, b) == oracles.milnor_product_mono_oracle(a, b), (a, b)


@settings(max_examples=60, deadline=None)
@given(hs.sampled_from([m for m, d in POOL if 16 <= d <= 28]),
       hs.sampled_from([m for m, d in POOL if 16 <= d <= 28]))
def test_product_matches_oracle_large(a, b):
    assert st.milnor_product_mono(a, b) == oracles.milnor_product_mono_oracle(a, b)


# the profiles whose quotient modules `square_check` and the coset tables build
SQUARE_PROFILES = [("E", 1), ("E", 2), ("A", 1), ("A", 2)]


def test_product_matches_oracle_on_the_a2_basis():
    bs = st.Profile("A", 2).algebra_basis()
    assert len(bs) == 64
    for a in bs:
        for b in bs:
            assert st.milnor_product_mono(a, b) == oracles.milnor_product_mono_oracle(a, b), (a, b)


def test_product_matches_oracle_on_generator_products():
    """The products the coset tables and action matrices take: each algebra
    generator of the square's profiles against every monomial through
    degree 24, on both sides."""
    gens = sorted({g for kind, n in SQUARE_PROFILES for g in st.Profile(kind, n).generators()})
    assert gens == [(0, 0, 1), (0, 1), (1,), (2,), (4,)]
    pairs = [(a, g) for g in gens for d in range(25) for a in st.basis(d)]
    assert len(pairs) == 1180
    for a, g in pairs:
        assert st.milnor_product_mono(a, g) == oracles.milnor_product_mono_oracle(a, g), (a, g)
        assert st.milnor_product_mono(g, a) == oracles.milnor_product_mono_oracle(g, a), (g, a)


def test_adem_oracle():
    nv = 3
    tp = frozenset({(1, 1, 1)})
    for a, b in [(1, 1), (1, 2), (2, 2), (3, 2), (2, 3), (5, 2), (4, 4), (3, 6)]:
        direct = st.word_on_poly((a, b), tp, nv)
        via = frozenset()
        for w in st.adem_word_normalize((a, b)):
            via ^= st.word_on_poly(w, tp, nv)
        assert direct == via, (a, b)
        mp = st.milnor_product(st.sq(a), st.sq(b))
        assert st.element_on_poly(mp, tp, nv) == direct, (a, b)


def test_sq_equals_milnor_single_row():
    nv = 2
    tp = frozenset({(2, 1)})
    for n in range(1, 8):
        assert st.milnor_on_poly((n,), tp, nv) == st.sq_on_poly(n, tp, nv)


def test_milnor_primitives():
    for i in range(4):
        Qi = st.milnor_primitive(i)
        assert st.milnor_product(Qi, Qi) == frozenset()
        assert st.element_degree(Qi) == 2 ** (i + 1) - 1
    assert st.milnor_primitive(0) == st.sq(1)
    comm = st.milnor_product(st.sq(2), st.sq(1)) ^ st.milnor_product(st.sq(1), st.sq(2))
    assert comm == st.milnor_primitive(1)


ALL_PROFILES = [("E", 0), ("E", 1), ("E", 2), ("E", 3), ("A", 0), ("A", 1), ("A", 2)]


@pytest.mark.parametrize("kind,n,total", [
    ("E", 0, 2), ("E", 1, 4), ("E", 2, 8), ("E", 3, 16),
    ("A", 0, 2), ("A", 1, 8), ("A", 2, 64),
])
def test_profile_dims(kind, n, total):
    pr = st.Profile(kind, n)
    assert pr.total_dim() == total
    assert pr.closure_check()


@pytest.mark.parametrize("kind,n", ALL_PROFILES)
def test_closure_check_matches_the_all_pairs_oracle(kind, n):
    pr = st.Profile(kind, n)
    assert pr.closure_check() is oracles.profile_closure_oracle(pr) is True


@pytest.mark.parametrize("kind,n", ALL_PROFILES)
def test_closure_check_with_a_basis_monomial_dropped(monkeypatch, kind, n):
    """With any member but the unit dropped the words leave the set, so
    closure_check fails.  The all-pairs oracle agrees except on the
    generators: no product of two other members reaches those, so the
    smaller set is still closed, but the generators do not span it."""
    pr = st.Profile(kind, n)
    full = pr.algebra_basis()
    for m in full[1:]:
        monkeypatch.setattr(pr, "algebra_basis", lambda m=m: [b for b in full if b != m])
        assert not pr.closure_check(), m
        assert oracles.profile_closure_oracle(pr) is (m in pr.generators()), m


@pytest.mark.parametrize("kind,n", ALL_PROFILES)
def test_closure_check_with_a_stray_monomial_in_a_generator_product(monkeypatch, kind, n):
    """One monomial outside the profile, of the right degree, added to g.top
    (zero in the algebra) for one generator g: both checks fail."""
    pr = st.Profile(kind, n)
    top = pr.algebra_basis()[-1]
    product = st.milnor_product_mono
    for g in pr.generators():
        stray = st.basis(st.mono_degree(g) + st.mono_degree(top))[0]
        assert not pr.member(stray)

        def perturbed(r, s, g=g, stray=stray):
            out = product(r, s)
            return out | {stray} if (r, s) == (g, top) else out

        monkeypatch.setattr(st, "milnor_product_mono", perturbed)
        assert not pr.closure_check() and not oracles.profile_closure_oracle(pr)


@pytest.mark.parametrize("kind,n", ALL_PROFILES)
def test_closure_check_with_a_generator_missing(monkeypatch, kind, n):
    """Without one generator the words span a proper subspace, so
    closure_check fails; the all-pairs oracle does not read the generators
    and still holds."""
    pr = st.Profile(kind, n)
    gens = pr.generators()
    for g in gens:
        monkeypatch.setattr(pr, "generators", lambda g=g: [h for h in gens if h != g])
        assert not pr.closure_check(), g
        assert oracles.profile_closure_oracle(pr)


def run_profiles_check():
    check = next(c for c in REGISTRY if c.id == "st.profiles")
    return check.fn(RunConfig(), random.Random(0))


def test_profiles_fail_with_a_monomial_outside_a2(monkeypatch):
    """Negative control: Sq(8), outside A(2), added to Sq(4).Sq(4)."""
    run_profiles_check()
    product = st.milnor_product_mono

    def perturbed(r, s):
        out = product(r, s)
        return out | {(8,)} if (r, s) == ((4,), (4,)) else out

    monkeypatch.setattr(st, "milnor_product_mono", perturbed)
    with pytest.raises(CheckFailure, match="A\\(2\\) not closed under the product"):
        run_profiles_check()


def test_profiles_fail_without_sq4_in_a2(monkeypatch):
    """Negative control: without Sq(4) the words in Sq(1), Sq(2) span only
    A(1), not the 64 members of A(2)."""
    full = st.Profile.generators

    def without_sq4(self):
        gens = full(self)
        return [g for g in gens if g != (4,)] if repr(self) == "A(2)" else gens

    monkeypatch.setattr(st.Profile, "generators", without_sq4)
    with pytest.raises(CheckFailure, match="A\\(2\\) not closed under the product"):
        run_profiles_check()


def test_profile_rejects_a_bad_index():
    for n in (-1, -3, 1.0, 1.5, "1", None):
        with pytest.raises(ValueError, match="profile index"):
            st.Profile("A", n)
        with pytest.raises(ValueError, match="profile index"):
            st.Profile("E", n)
    with pytest.raises(ValueError, match="profile kind"):
        st.Profile("B", 1)


@pytest.mark.parametrize("kind,n", ALL_PROFILES)
def test_generators_are_members_and_generate(kind, n):
    """Each generator lies in the profile, and breadth-first left
    multiplication by the generators from the unit spans its whole basis."""
    pr = st.Profile(kind, n)
    gens = pr.generators()
    assert len(gens) == n + 1 and all(pr.member(g) for g in gens)
    bs = pr.algebra_basis()
    index = {m: i for i, m in enumerate(bs)}

    def vector(elem):
        return sum(1 << index[m] for m in elem)   # KeyError if elem leaves B

    rows, pivots = f2_rref([vector(st.UNIT)])
    frontier = [st.UNIT]
    while frontier:
        x = frontier.pop(0)
        for g in gens:
            y = st.milnor_product(frozenset({g}), x)
            if f2_reduce(rows, pivots, vector(y)):
                rows, pivots = f2_rref(rows + [vector(y)])
                frontier.append(y)
    assert len(rows) == len(bs) == pr.total_dim()


@pytest.mark.parametrize("kind,n", ALL_PROFILES)
def test_quotient_ideal_matches_the_b_plus_span(kind, n):
    pr = st.Profile(kind, n)
    qm = st.QuotientModule(pr, 24)
    ref = oracles.quotient_ideal_oracle(pr, 24)
    for d in range(25):
        rows, pivots, reps = ref[d]
        assert set(qm.ideal_pivots[d]) == set(pivots), (pr, d)
        assert qm.reps[d] == reps, (pr, d)
        assert set(qm.ideal_basis[d]) == set(rows), (pr, d)


def test_quotient_tables_fail_without_sq2_in_a1(monkeypatch):
    """Negative control: with Sq(2) dropped, A(1) spans only the ideal of
    E(0) and its coset table no longer matches the convolution."""
    check = next(c for c in REGISTRY if c.id == "st.quotient-tables")
    check.fn(RunConfig(), random.Random(0))
    full = st.Profile.generators

    def without_sq2(self):
        gens = full(self)
        return [g for g in gens if g != (2,)] if repr(self) == "A(1)" else gens

    monkeypatch.setattr(st.Profile, "generators", without_sq2)
    with pytest.raises(CheckFailure, match="coset table vs convolution for A\\(1\\)"):
        check.fn(RunConfig(), random.Random(0))


def test_exterior_inside_full_profile():
    for n in (1, 2):
        An = st.Profile("A", n)
        for r in st.Profile("E", n).algebra_basis():
            assert An.member(r)


def test_quotient_convolution_freeness():
    for kind, n in (("E", 0), ("E", 1), ("E", 2), ("A", 1), ("A", 2)):
        pr = st.Profile(kind, n)
        q = st.quotient_dims_convolution(pr, 48)
        pb = pr.dims(48)
        pa = st.dims_table(48)
        back = [sum(q[i] * pb[d - i] for i in range(d + 1)) for d in range(49)]
        assert back == pa, pr


def test_quotient_low_dims():
    qE1 = st.quotient_dims_convolution(st.Profile("E", 1), 8)
    assert qE1 == [1, 0, 1, 0, 1, 0, 2, 1, 2]
    qA1 = st.quotient_dims_convolution(st.Profile("A", 1), 8)
    assert qA1 == [1, 0, 0, 0, 1, 0, 1, 1, 1]
    qE0 = st.quotient_dims_convolution(st.Profile("E", 0), 8)
    assert qE0 == [1, 0, 1, 1, 1, 1, 2, 2, 2]


def test_quotient_tables_match_and_cyclic():
    for kind, n in (("E", 1), ("E", 2), ("A", 1)):
        pr = st.Profile(kind, n)
        qm = st.QuotientModule(pr, 12)
        assert qm.dims() == st.quotient_dims_convolution(pr, 12)
        assert qm.cyclic_check()


@pytest.mark.parametrize("kind", ["E", "A"])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_cyclic_check_matches_oracle(kind, n):
    qm = st.QuotientModule(st.Profile(kind, n), 16)
    assert qm.cyclic_check() is oracles.cyclic_check_oracle(qm) is True


def test_cyclic_check_fails_without_sq1():
    qm = st.QuotientModule(st.Profile("E", 0), 12)
    full = qm.action_matrix

    def no_sq1(op, d):
        cols = full(op, d)
        return [0] * len(cols) if op == st.sq(1) else cols

    qm.action_matrix = no_sq1
    assert not qm.cyclic_check()


def test_square_commutes_to_16():
    res = st.square_check(16)
    assert res["ok"], res["witness"]


def test_square_degree_zero_maps_unit():
    E1 = st.QuotientModule(st.Profile("E", 1), 4)
    A1 = st.QuotientModule(st.Profile("A", 1), 4)
    m = st.module_map_matrix(E1, A1, 0)
    assert m == [1]


def test_bstar():
    assert st.bstar_generator_degrees(2, 2, 32) == [2, 6, 14, 15, 31]
    assert st.bstar_dims(0, 2, 8) == [1, 0, 1, 1, 1, 1, 2, 2, 2]
    assert st.bstar_dims(1, 2, 0) == [1]


def test_dims_helpers_match_oracles():
    for N in range(70):
        assert st.poincare_product_dims(N) == oracles.poincare_product_dims_oracle(N)
        for n in range(4):
            for p in (2, 3, 5, 7):
                assert st.bstar_dims(n, p, N) == oracles.bstar_dims_oracle(n, p, N), (n, p, N)
            for p in (3, 5, 7):
                assert st.dual_steenrod_dims_odd(p, N, n) == \
                    oracles.dual_steenrod_dims_odd_oracle(p, N, n), (n, p, N)


def test_duality_dims():
    assert st.duality_dims_check(0, 16)
    assert st.duality_dims_check(1, 24)
    assert st.duality_dims_check(2, 32)


def test_evenness_below_bound():
    assert st.evenness_below(1, 24)
    assert st.evenness_below(2, 32)


def test_compose_f2_matrices_matches_the_middle_basis_loop():
    """later o earlier by _apply_left equals the loop over the middle basis,
    on seeded matrices, empty ones included, and on the square's own maps."""
    rng = random.Random(34)
    for _ in range(2000):
        mid = rng.randint(0, 12)
        later = [rng.getrandbits(rng.randint(0, 12)) for _ in range(mid)]
        earlier = [rng.getrandbits(mid) for _ in range(rng.randint(0, 8))]
        assert st.compose_f2_matrices(later, earlier) == \
            oracles.compose_f2_matrices_oracle(later, earlier, mid)
    E1, A1 = st.QuotientModule(st.Profile("E", 1), 8), st.QuotientModule(st.Profile("A", 1), 8)
    for d in range(8):
        t = st.module_map_matrix(E1, A1, d)
        act = A1.action_matrix(st.sq(1), d)
        assert st.compose_f2_matrices(act, t) == \
            oracles.compose_f2_matrices_oracle(act, t, A1.dim(d))
