"""Acceptance gate: the eleven headline criteria, each run at its stated
tolerance (all exact) and wall-clock budget, printing one line per criterion.
"""

import time
from fractions import Fraction

from chromalg import bp, elliptic, fgl, kforms, moduli, steenrod
from chromalg.poly import PolyRing
from chromalg.report import RunConfig, run_checks
from chromalg.rings import GF, Z_inverted, ZZ, omega_ring, sqrt_minus3
from chromalg.series import SeriesCtx


def _timed(name, budget_s, fn):
    t0 = time.perf_counter()
    fn()
    dt = time.perf_counter() - t0
    print(f"{name}: PASS ({dt:.2f}s, budget {budget_s}s)")
    assert dt < budget_s, f"{name} exceeded its {budget_s}s budget ({dt:.2f}s)"


def test_criterion_01_modular_invariants():
    def run():
        E, P = elliptic.universal_gamma1_3()
        A, B = P.gen("A"), P.gen("B")
        inv = elliptic.invariants(E)
        assert inv.c4 == A * (A ** 3 - 24 * B)
        assert inv.c6 == -(A ** 6) + 36 * (A ** 3) * B - 216 * B * B
        assert inv.disc == (B ** 3) * (A ** 3 - 27 * B)
        num, den = elliptic.j_invariant(E)
        assert num == (A ** 3) * ((A ** 3 - 24 * B) ** 3)
        assert den == (B ** 3) * (A ** 3 - 27 * B)
        assert num * ((B ** 3) * (A ** 3 - 27 * B)) == den * (A ** 3) * ((A ** 3 - 24 * B) ** 3)
    _timed("criterion 1 (modular invariants)", 1.0, run)


def test_criterion_02_reduction_table():
    def run():
        for q in (2, 4, 8):
            F = GF(q)
            for A in F.elements():
                for B in F.elements():
                    if F.is_zero(A) and F.is_zero(B):
                        continue
                    t = elliptic.reduction_type(elliptic.gamma1_3_curve(F, A, B))
                    disc_zero = F.is_zero(
                        elliptic.invariants(elliptic.gamma1_3_curve(F, A, B)).disc)
                    if disc_zero:
                        assert t == elliptic.NODAL
                    elif F.is_zero(A):
                        assert t == elliptic.SMOOTH_SUPERSINGULAR
                    else:
                        assert t == elliptic.SMOOTH_ORDINARY
            for b in F.elements():
                t = elliptic.reduction_type(elliptic.gamma1_3_curve(F, F.one(), b))
                assert t != elliptic.SMOOTH_SUPERSINGULAR
    _timed("criterion 2 (reduction types over GF(2), GF(4), GF(8))", 5.0, run)


def test_criterion_03_cusp_evaluation():
    def run():
        P = PolyRing(ZZ, ("beta",))
        beta = P.gen("beta")
        inv = elliptic.invariants(elliptic.gamma1_3_curve(P, beta, P.zero()))
        assert inv.c4 == beta ** 4
        assert inv.c6 == -(beta ** 6)
        E, PF = elliptic.universal_gamma1_3()
        invf = elliptic.invariants(E)
        sub = {"__ring__": P, "A": beta, "B": P.zero(),
               "__coeff__": lambda c: P.from_int(c)}
        assert invf.c4.substitute(sub) == inv.c4
        assert invf.c6.substitute(sub) == inv.c6
    _timed("criterion 3 (cusp evaluation)", 1.0, run)


def test_criterion_04_hazewinkel():
    def run():
        E, P = elliptic.universal_gamma1_3()
        A, B = P.gen("A"), P.gen("B")
        F = fgl.fgl_from_curve(E, 12)
        data = fgl.hazewinkel_generators(F, 2, 2)
        assert data.v[0] == A, "v1 = 1 * A exactly"
        assert data.v[1] == B, "v2 = 1 * B exactly (unit 1, no (A,2)-corrections)"
        assert bp.reduce_poly_modulo(data.v[0], 2) == bp.reduce_poly_modulo(A, 2)
        assert bp.reduce_poly_modulo(data.v[1], 2, kill_gens=("A",)) == \
            bp.reduce_poly_modulo(B, 2, kill_gens=("A",))
        Pu = PolyRing(ZZ, ("u",))
        u = Pu.gen("u")
        dm = fgl.hazewinkel_generators(fgl.conic_fgl(Pu, -u, Pu.zero(), 12), 2, 2)
        assert dm.v[1].is_zero(), "multiplicative v2 = 0 exactly"
        Pb = PolyRing(ZZ, ("beta",))
        sub = {"__ring__": Pb, "A": Pb.gen("beta"), "B": Pb.zero(),
               "__coeff__": lambda c: Pb.from_int(int(c))}
        assert data.v[1].substitute(sub).is_zero(), "Tate specialization v2 -> 0"
    _timed("criterion 4 (Hazewinkel shadow at series precision 12)", 10.0, run)


def test_criterion_05_canonical_subgroup_frobenius():
    def run():
        F1 = fgl.two_adic_family_fgl(1, 8, 9)
        K1 = fgl.canonical_subgroup(F1)
        q = fgl.quotient_by_subgroup(F1, K1)
        R = F1.ring
        # the twist at the quotient's x-precision, so its top degree is compared
        twist = fgl.family_fgl_at(R, R.mul(R.gen(), R.gen()), 9, check_assoc=False)
        assert q.fgl.F == twist.F
    _timed("criterion 5 (canonical-subgroup quotient = Frobenius twist, "
           "b-precision 8)", 10.0, run)


def test_criterion_06_cech_cohomology():
    def run():
        for n in range(-40, 41):
            want = 0 if n < 0 else n // 3 + 1
            assert moduli.h0_rank(n) == want
        assert moduli.h1_from_cech(-4) == [(-1, -1)]
        ann = moduli.annihilation_check()
        assert ann["A*D"] and ann["B*D"] and ann["D_not_coboundary"]
        for n in range(-3, 41):
            assert moduli.h1_rank(n) == 0
    _timed("criterion 6 (weighted projective cohomology)", 1.0, run)


def test_criterion_07_steenrod_suite():
    def run():
        assert steenrod.Profile("A", 1).total_dim() == 8
        assert steenrod.Profile("A", 2).total_dim() == 64
        for n in range(4):
            assert steenrod.Profile("E", n).total_dim() == 2 ** (n + 1)
        pa = steenrod.dims_table(48)
        for kind, n in (("E", 1), ("E", 2), ("A", 1), ("A", 2)):
            pr = steenrod.Profile(kind, n)
            q = steenrod.quotient_dims_convolution(pr, 48)
            pb = pr.dims(48)
            assert [sum(q[i] * pb[d - i] for i in range(d + 1))
                    for d in range(49)] == pa
        assert steenrod.quotient_dims_convolution(steenrod.Profile("E", 2), 32) == \
            steenrod.bstar_dims(2, 2, 32)
        res = steenrod.square_check(16)
        assert res["commutes"] and res["linear"] and res["cyclic"]
    _timed("criterion 7 (Steenrod suite: dims, convolution to 48, duality to 32, "
           "square to 16)", 60.0, run)


def test_criterion_08_tor_degeneration():
    def run():
        seq, module, P = bp.bp2_shadow_sequence(20)
        tor = bp.koszul_tor(seq, module, 20)
        for (s, d) in tor.entries:
            if s > 0:
                assert tor.is_zero(s, d), (s, d)
        rep = bp.tor_degeneration_identity(2, 2, 24)
        assert rep["truncated_equal"] and rep["full_equal"]
        rep1 = bp.tor_degeneration_identity(1, 2, 24)
        assert rep1["truncated_equal"] and rep1["full_equal"]
    _timed("criterion 8 (Koszul Tor vanishing to 20; exterior identity to 24)",
           60.0, run)


def test_criterion_09_q_expansions():
    def run():
        e4, e6, delta, q_j, j_inv = moduli.eisenstein_j(16)
        for n in range(16):
            delta.coefficient((n,))       # integral by construction; probe
        assert j_inv.coefficient((0,)) == 0 and j_inv.coefficient((1,)) == 1
        import random
        rng = random.Random(0)
        q16 = SeriesCtx(ZZ, ("q",), 16)
        for _ in range(100):
            f = q16.series({(k,): rng.randint(-999, 999) for k in range(16)})
            assert moduli.psi_defect(f).coefficient((0,)) == 0
    _timed("criterion 9 (q-expansions)", 5.0, run)


def test_criterion_10_appendix_suite():
    def run():
        F4 = GF(4)
        C = elliptic.curve(F4, F4.zero(), F4.zero(), F4.one(), F4.zero(), F4.zero())
        aut = elliptic.automorphism_group(C)
        assert len(aut) == 24
        assert elliptic.transform_order(
            F4, (F4.gen(), F4.zero(), F4.zero(), F4.zero())) == 3
        R = Z_inverted(3)
        E = elliptic.curve(R, Fraction(3), Fraction(0), Fraction(1),
                           Fraction(0), Fraction(0))
        nd = elliptic.node_uniformization(E, N=8)
        num, den = nd.law.as_fraction()
        t, u = num.pring.gen("t"), num.pring.gen("u")
        assert num == t * u - 3 and den == t + u + 3
        cands = R.unit_candidates(2)
        Fc = fgl.conic_fgl(R, Fraction(3), Fraction(3), 7)
        for cand in cands:
            r = fgl.find_iso(Fc, fgl.conic_fgl(R, cand, Fraction(0), 7),
                             "linear-unit", N=6, unit_candidates=cands)
            assert isinstance(r, fgl.Obstruction)
        W = omega_ring()
        res = fgl.find_iso(fgl.conic_fgl(W, W.from_int(3), W.from_int(3), 13),
                           fgl.conic_fgl(W, sqrt_minus3(W), W.zero(), 13),
                           "strict", N=12)
        assert isinstance(res, fgl.IsoResult)
        sigma = kforms.omega_conjugation(W)
        minus = kforms.eigenspace(W, sigma, -1)
        assert len(minus) == 1 and minus[0][1] == 2 * minus[0][0]
        coh = kforms.c2_cohomology(W, sigma)
        assert coh["H1"] == (0, [])
        for p in (3, 5):
            rep = kforms.frobenius_lift_obstruction(p)
            assert rep["all_fail"]
    _timed("criterion 10 (forms of K-theory suite)", 30.0, run)


def test_criterion_11_determinism_full_run():
    def run():
        cfg = RunConfig()
        r1 = run_checks(cfg)
        r2 = run_checks(cfg)
        assert r1["checks"] == r2["checks"]
        assert r1["summary"] == r2["summary"]
        assert r1["summary"]["fail"] == 0
        assert len(r1["checks"]) >= 40
    _timed("criterion 11 (two identical full runs modulo header)", 300.0, run)
