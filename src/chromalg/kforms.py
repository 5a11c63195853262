"""Forms of the multiplicative group and the twisted K-theory homotopy ring.

Everything is linear algebra over Z[1/3] on the basis {1, w} of the cubic
extension (w^2 + w + 1 = 0, sqrt(-3) = 1 + 2w), plus small exact checks: group
cohomology of the conjugation action, the cusp substitution into the level-3
family, and the Frobenius-lift obstruction for cyclotomic extensions."""

from __future__ import annotations

from fractions import Fraction

from .convert import reduce_scalar
from .elliptic import gamma1_3_curve, invariants, transform, curves_equal
from .fgl import conic_discriminant
from .linalg import f2_rank, int_kernel, lattice_homology
from .poly import PolyRing
from .rings import (PrimeField, QuotientExtension, Ring, ZZ, _valuation, omega_ring,
                    sqrt_minus3)


def omega_conjugation(T: QuotientExtension):
    """The involution w -> w^2 = -1 - w as a function on coefficient tuples."""
    def sigma(x):
        a, b = x
        B = T.base
        return (B.sub(a, b), B.neg(b))
    return sigma


def sigma_matrix(T: QuotientExtension, sigma) -> list[list[int]]:
    """Integer matrix of sigma on the basis {1, w} (columns are images);
    IntegralityFailure when an image has a coordinate outside Z."""
    return [[reduce_scalar(c, ZZ) for c in sigma(v)] for v in (T.one(), T.gen())]


def eigenspace(T: QuotientExtension, sigma, sign: int, degree: int = 0):
    """Basis over the fixed ring of {x : sigma(x) = eps * x} with the twist
    eps = sign * (-1)^(degree/2) (the Bott-power character on degree 2k)."""
    k = degree // 2
    eps = sign * ((-1) ** k)
    M = sigma_matrix(T, sigma)
    # (M - eps) x = 0 over Z; columns of M are images
    cols = [[M[j][i] - (eps if i == j else 0) for i in range(2)] for j in range(2)]
    ker = int_kernel(cols, 2)
    return [tuple(Fraction(c) for c in v) for v in ker]


def c2_cohomology(T: QuotientExtension, sigma):
    """H^1 and H^2 of C_2 acting on T by sigma, with the prime 3, inverted in
    Z[1/3][w], discarded from torsion (see c2_lattice_cohomology)."""
    return c2_lattice_cohomology(sigma_matrix(T, sigma), (3,))


def _norm_and_sm1(M: list[list[int]]):
    """Columns of the norm 1 + sigma and of sigma - 1, for sigma = M."""
    n = len(M)
    norm = [[M[j][i] + (i == j) for i in range(n)] for j in range(n)]
    sm1 = [[M[j][i] - (i == j) for i in range(n)] for j in range(n)]
    return norm, sm1


def c2_lattice_cohomology(M: list[list[int]], invert: tuple[int, ...] = ()):
    """H^1 = ker(Norm)/im(sigma - 1), H^2 = ker(sigma - 1)/im(Norm) for sigma
    acting on Z^n by the integer matrix M (columns are images), computed by
    integer lattices with the primes in `invert` discarded from torsion.
    IntegralityFailure when an image leaves the kernel lattice, which happens
    exactly when sigma^2 != 1."""
    n = len(M)
    norm, sm1 = _norm_and_sm1(M)

    def group(ker_of, im_of):
        free, diag = lattice_homology(ker_of, n, im_of)
        torsion = []
        for d in diag:
            for p in invert:
                d = _valuation(d, p)[1]
            if d != 1:
                torsion.append(d)
        return (free - len(diag), torsion)

    return {"H1": group(norm, sm1), "H2": group(sm1, norm)}


def c2_f2_cohomology(M: list[list[int]]):
    """H^1 and H^2 of C_2 acting on F_2^n by M mod 2, in the form of
    c2_lattice_cohomology: (0, [2] * dimension).  Over F_2 the norm and
    sigma - 1 are one matrix, so dim H^1 = dim H^2 = n - rk Norm - rk(sigma - 1).
    ValueError unless Norm (sigma - 1) = 0 mod 2, i.e. sigma^2 = 1 mod 2."""
    n = len(M)
    norm, sm1 = _norm_and_sm1(M)
    if any(sum(norm[k][i] * c for k, c in enumerate(col)) % 2
           for col in sm1 for i in range(n)):
        raise ValueError("not a C_2 action mod 2: Norm (sigma - 1) != 0")
    dim = n - f2_rank(norm) - f2_rank(sm1)
    return {"H1": (0, [2] * dim), "H2": (0, [2] * dim)}


def c2_cohomology_trivial_Z():
    """Contrast case: T = Z with trivial action: H^1 = 0, H^2 = Z/2."""
    # norm = multiplication by 2, sigma - 1 = 0, on the rank-1 lattice
    return c2_lattice_cohomology([[1]])


def c2_cohomology_F2_trivial():
    """Contrast case: T = F_2 with trivial action: Norm = sigma - 1 = 0, so
    H^1 = H^2 = F_2."""
    return c2_f2_cohomology([[1]])


# -- twisted K homotopy -----------------------------------------------------------

def twisted_k_generator(T: QuotientExtension, k: int):
    """(sqrt(-3))^k as the degree-2k generator (negative k uses sqrt(-3)^-1 =
    -sqrt(-3)/3, available since 3 is inverted)."""
    s3 = sqrt_minus3(T)
    if k >= 0:
        return T.pow(s3, k)
    return T.pow(T.inv(s3), -k)


def twisted_k_check(T: QuotientExtension, sigma, maxdeg: int = 16) -> dict:
    """Degree-2k piece of the twisted theory = {x : sigma(x) = (-1)^k x}; the
    generators (sqrt(-3))^k span each piece over Z[1/3] and multiply with the
    correct eigenspace signs."""
    out = {"pieces": True, "products": True}
    for k in range(-maxdeg // 2, maxdeg // 2 + 1):
        gen = twisted_k_generator(T, k)
        eps = (-1) ** k
        img = sigma(gen)
        want = gen if eps == 1 else T.neg(gen)
        if not T.eq(img, want):
            out["pieces"] = False
        # gen must generate the same Z[1/3]-line as the eigenspace basis v:
        # gen = lam v with lam a unit of T's base
        (v,) = eigenspace(T, sigma, +1, degree=2 * k)
        i = 0 if v[0] else 1
        lam = T.base.divide(gen[i], v[i])
        if lam is None or not T.base.is_unit(lam) or \
                not T.eq(gen, tuple(T.base.mul(lam, c) for c in v)):
            out["pieces"] = False
    for k in range(-4, 5):
        for m in range(-4, 5):
            prod = T.mul(twisted_k_generator(T, k), twisted_k_generator(T, m))
            eps = (-1) ** (k + m)
            img = sigma(prod)
            want = prod if eps == 1 else T.neg(prod)
            if not T.eq(img, want):
                out["products"] = False
    out["ok"] = out["pieces"] and out["products"]
    return out


# -- cusp restriction ---------------------------------------------------------------

def _cusp_substitution(sign: int = +1, lam_power: int = 0):
    """(E_sub, moved, target) over Z[w][beta, 1/beta]: the family E_sub at
    A = sqrt(-3) beta lam and B = sign * A^3/27 with lam = beta^lam_power,
    E_sub scaled by u = A/3, and the target y^2 + 3xy + y = x^3."""
    W = omega_ring()
    S = PolyRing(W, ("beta",), laurent=("beta",))
    A_img = S.const(sqrt_minus3(W)) * S.gen("beta") * S.gen("beta", lam_power)
    B_img = (A_img ** 3) * S.const(W.divide(W.one(), W.from_int(27 * sign)))
    E_sub = gamma1_3_curve(S, A_img, B_img)
    u = A_img * S.const(W.divide(W.one(), W.from_int(3)))
    moved = transform(E_sub, u, S.zero(), S.zero(), S.zero())
    return E_sub, moved, gamma1_3_curve(S, S.from_int(3), S.one())


def cusp_restriction_check(sign: int = +1) -> dict:
    """Substitute A = sqrt(-3) beta, B = sign * (1/27) (sqrt(-3) beta)^3 into the
    family and search for a Weierstrass transformation onto y^2+3xy+y = x^3.

    With sign = +1 the substituted curve is nodal and the scaling
    u = sqrt(-3) beta / 3 lands exactly on the target; with sign = -1 the
    curve is smooth (discriminant -54 B^4-type), so no transformation can
    exist and the discriminant is returned as the residual witness."""
    E_sub, moved, target = _cusp_substitution(sign)
    inv_sub = invariants(E_sub)
    inv_t = invariants(target)
    report = {"sign": sign, "sub_disc_zero": inv_sub.disc.is_zero(),
              "target_disc_zero": inv_t.disc.is_zero()}
    if not inv_sub.disc.is_zero():
        report["found"] = False
        report["residual"] = f"substituted curve is smooth: disc = {inv_sub.disc}"
        return report
    if curves_equal(moved, target):
        report["found"] = True
        report["transformation"] = "(u, r, s, t) = (sqrt(-3) beta / 3, 0, 0, 0)"
        return report
    report["found"] = False
    report["residual"] = "no scaling transformation matched"
    return report


def cusp_restriction_rescaled(lam_power: int = 1) -> bool:
    """Weight consistency: the lambda-rescaled substitution also lands on the
    target after adjusting u."""
    _, moved, target = _cusp_substitution(lam_power=lam_power)
    return curves_equal(moved, target)


# -- Frobenius lift obstruction -------------------------------------------------------

def frobenius_lift_obstruction(p: int) -> dict:
    """In Z[x]/Phi_p, ring endomorphisms send x to a root of Phi_p, i.e. to
    x^k (k = 1..p-1); none satisfies phi(a) = a^p mod p (witness a = x).
    Contrast: the identity on Z lifts Frobenius by Fermat."""
    Phi = tuple([1] * p)   # 1 + x + ... + x^(p-1)
    Rp = QuotientExtension(PrimeField(p), tuple(c % p for c in Phi), gen_name="z")
    z = Rp.gen()
    zp = Rp.pow(z, p)      # = 1 in the quotient
    failures = {}
    for k in range(1, p):
        img = Rp.pow(z, k)      # candidate phi(z) = z^k
        ok = Rp.eq(img, zp)     # phi(z) = z^p mod p required
        failures[k] = not ok
    contrast = all(pow(a, p, p) == a % p for a in range(p))
    return {
        "p": p,
        "candidates": list(range(1, p)),
        "all_fail": all(failures.values()),
        "witness": "z (the cyclotomic generator)",
        "zp_identity": "z^p = 1",
        "contrast_Zp_identity_works": contrast,
    }


def discriminant_classification(ring: Ring, b, c) -> str:
    return "form" if ring.is_unit(conic_discriminant(ring, b, c)) else "degenerate"
