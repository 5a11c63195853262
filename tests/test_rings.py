import random
from fractions import Fraction

import pytest

from chromalg.convert import descend_scalar, fraction_mod
from chromalg.errors import IntegralityFailure
from chromalg.rings import (GF, ModularIntegers, PrimeField, QQ,
                            QuotientExtension, Z_inverted, Z_local, ZZ,
                            omega_ring, sqrt_minus3)


def test_localized_at_two_rejects_even_denominators():
    R = Z_local(2)
    with pytest.raises(ValueError):
        R.check(Fraction(1, 2))
    with pytest.raises(ValueError):
        R.check(Fraction(3, 6))
    for d in (1, 3, 5, 7, 9, 11):
        assert R.check(Fraction(1, d)) == Fraction(1, d)


def test_localized_units():
    R2 = Z_local(2)
    assert R2.is_unit(Fraction(3, 5)) and not R2.is_unit(Fraction(2, 5))
    R3 = Z_inverted(3)
    assert R3.is_unit(Fraction(9)) and R3.is_unit(Fraction(1, 27))
    assert not R3.is_unit(Fraction(2))
    cands = R3.unit_candidates(2)
    assert Fraction(9) in cands and Fraction(-1, 3) in cands


def test_modular_and_prime_fields():
    Z8 = ModularIntegers(8)
    assert Z8.inv(5) == 5 and Z8.nilpotent_bound() == 3
    assert Z8.solve_int(2, 6) == [3, 7]
    assert Z8.solve_int(2, 5) == []
    F7 = PrimeField(7)
    assert F7.mul(F7.inv(3), 3) == 1
    with pytest.raises(ValueError):
        PrimeField(6)


def test_gf4_and_gf8():
    F4 = GF(4)
    w = F4.gen()
    assert F4.eq(F4.pow(w, 3), F4.one())
    assert len(F4.elements()) == 4
    assert all(F4.is_unit(e) for e in F4.elements() if not F4.is_zero(e))
    F8 = GF(8)
    g = F8.gen()
    assert F8.eq(F8.pow(g, 7), F8.one())
    assert len(F8.elements()) == 8


def test_quotient_extension_monic_required():
    with pytest.raises(ValueError):
        QuotientExtension(ZZ, (1, 1, 2))


def test_omega_ring_sqrt_minus_three():
    W = omega_ring()
    s3 = sqrt_minus3(W)
    assert W.eq(W.mul(s3, s3), W.from_int(-3))
    assert W.is_unit(s3)           # norm 3 is inverted
    inv = W.inv(s3)
    assert W.eq(W.mul(inv, s3), W.one())
    cands = W.unit_candidates(1)
    assert any(W.eq(u, s3) for u in cands)


@pytest.mark.parametrize("ring,sampler", [
    (ZZ, lambda rng: rng.randint(-50, 50)),
    (QQ, lambda rng: Fraction(rng.randint(-20, 20), rng.randint(1, 9))),
    (ModularIntegers(12), lambda rng: rng.randint(0, 11)),
    (GF(4), None),
])
def test_ring_axioms_randomized(ring, sampler):
    rng = random.Random(0)
    if sampler is None:
        elems = ring.elements()
        sample = lambda: rng.choice(elems)
    else:
        sample = lambda: sampler(rng)
    for _ in range(1000):
        a, b, c = sample(), sample(), sample()
        assert ring.eq(ring.add(ring.add(a, b), c), ring.add(a, ring.add(b, c)))
        assert ring.eq(ring.mul(ring.mul(a, b), c), ring.mul(a, ring.mul(b, c)))
        assert ring.eq(ring.mul(a, ring.add(b, c)),
                       ring.add(ring.mul(a, b), ring.mul(a, c)))
        assert ring.eq(ring.mul(a, b), ring.mul(b, a))


def test_divide_semantics():
    assert ZZ.divide(6, 3) == 2 and ZZ.divide(7, 3) is None
    Z8 = ModularIntegers(8)
    assert Z8.divide(6, 2) in (3, 7)
    assert Z8.divide(1, 2) is None


def test_fraction_mod_needs_a_denominator_prime_to_m():
    for q in (Fraction(1, 2), Fraction(1, 6)):
        with pytest.raises(IntegralityFailure):
            fraction_mod(q, 8)
    assert fraction_mod(Fraction(1, 3), 8) == 3


def test_descend_scalar_keeps_each_coordinate():
    T = omega_ring()
    assert descend_scalar((Fraction(1, 3), Fraction(1, 9)), T) == (Fraction(1, 3), Fraction(1, 9))
    with pytest.raises(IntegralityFailure):
        descend_scalar(Fraction(1, 2), Z_local(2))
