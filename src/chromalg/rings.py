"""Exact coefficient rings.

Every ring is an object operating on plain Python scalars:

  Rationals           -> Fraction
  Integers            -> int
  LocalizedIntegers   -> Fraction (denominator constrained on construction)
  ModularIntegers(m)  -> int in [0, m)
  PrimeField(p)       -> int in [0, p), p prime
  QuotientExtension   -> tuple of base scalars (length = deg of the monic modulus)

Z, Z_(p) and Z[1/p] subclass Rationals and share its arithmetic, which is
Python's own on ints and Fractions; each adds its units and exact division,
and Z its int constants.  Composite carriers (polynomial and truncated power-series rings)
live in poly.py / series.py and implement the same interface, so the whole
tower composes: e.g. series in x over Z/4[[b]] are series whose scalars are
series whose scalars are ints.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .errors import NeedsTorsionFree, NotInvertible


def _check_lengths(xs, ys):
    if len(xs) != len(ys):
        raise ValueError(f"dot of {len(xs)} by {len(ys)} scalars")


class Ring:
    """Interface shared by all coefficient rings."""

    char = 0

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def dot(self, xs, ys):
        """x1*y1 + x2*y2 + ... + xn*yn for sequences xs, ys of one length,
        summed in that order; zero() when they are empty.  A ring whose
        scalars compute on integers overrides this with one normalisation per
        result, keeping the value and Python type of this loop."""
        _check_lengths(xs, ys)
        if not xs:
            return self.zero()
        acc = self.mul(xs[0], ys[0])
        for k in range(1, len(xs)):
            acc = self.add(acc, self.mul(xs[k], ys[k]))
        return acc

    def eq(self, a, b) -> bool:
        return self.is_zero(self.sub(a, b))

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def divide(self, a, b):
        """Some x with b*x = a, or None: the one exact division of every
        ring.  Over Z/m x is the least solution.  PolyRing, SeriesRing and
        QuotientExtension divide by a scalar of their base (a constant, zero
        included) coefficient by coefficient (_divide_each) before trying an
        inverse, and may give None where neither applies.  Over Z, Q, Z_(p),
        Z[1/p] and Z/m None means no x exists, but for 0/0 outside Z/m.
        n*x = b for an integer n is divide(b, from_int(n))."""
        if self.is_unit(b):
            return self.mul(a, self.inv(b))
        return None

    def pow(self, a, n: int):
        if n < 0:
            raise ValueError(f"negative exponent {n}: use inv")
        out = self.one()
        base = a
        while n:
            if n & 1:
                out = self.mul(out, base)
            n >>= 1
            if n:
                base = self.mul(base, base)
        return out

    def scale_int(self, a, n: int):
        return self.mul(a, self.from_int(n))

    def elements(self):
        raise NotImplementedError(f"{self} is not finite")

    def rationalize(self):
        """(R', map) with R' a Q-algebra receiving this ring; torsion-free only."""
        raise NeedsTorsionFree(f"{self} has no torsion-free rational lift")

    def unit_candidates(self, bound: int):
        """Finite unit sweep used by linear-unit isomorphism searches."""
        one = self.one()
        return [one, self.neg(one)]

    def nilpotent_bound(self):
        """Nilpotency index of the maximal ideal, when known.  None otherwise."""
        return None

    def render(self, a) -> str:
        return str(a)

    def structure(self) -> tuple:
        """The class and the defining parameters, with the base ring's own
        structure in place of the base: equal tuples mean the same ring."""
        return (type(self),)

    def __repr__(self):
        return self.__class__.__name__


class Rationals(Ring):
    """Q on Fractions.  Its add, sub, neg, mul, eq and is_zero are Python's
    own operators, so they serve every ring whose scalars are Python
    numbers: Z, on ints with its own constants and dot, and Z_(p) and
    Z[1/p], on Fractions, subclass it and add their units and exact
    division."""

    char = 0

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def dot(self, xs, ys):
        return _dot_fractions(xs, ys)

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise NotInvertible("division by zero in Q")
        return Fraction(1, a)

    def divide(self, a, b):
        return None if b == 0 else Fraction(a) / b

    def rationalize(self):
        return self, lambda x: x


class Integers(Rationals):
    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return int(n)

    def dot(self, xs, ys):
        # 0 + x1*y1 has the value and type of x1*y1
        _check_lengths(xs, ys)
        return sum(map(operator.mul, xs, ys))

    def is_unit(self, a):
        return a in (1, -1)

    def inv(self, a):
        if a in (1, -1):
            return a
        raise NotInvertible(f"{a} is not a unit in Z")

    def divide(self, a, b):
        if b == 0:
            return None
        q, r = divmod(a, b)
        return q if r == 0 else None

    def rationalize(self):
        return Rationals(), Fraction


def _valuation(n: int, p: int) -> tuple[int, int]:
    """(v, u) with n = p^v u and p not dividing u, for n != 0."""
    if n == 0:
        raise ValueError("0 has no p-adic valuation")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _divide_each(base: Ring, coeffs: dict, c):
    """{key: base.divide(x, c)} for the values x of coeffs, or None when
    some x has no quotient by the base scalar c."""
    out = {}
    for e, x in coeffs.items():
        q = base.divide(x, c)
        if q is None:
            return None
        out[e] = q
    return out


def _prime_factors(n: int):
    n = abs(n)
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


class LocalizedIntegers(Rationals):
    """Z localized either at a prime (denominators coprime to p) or by
    inverting a fixed set of primes (denominators supported on that set)."""

    def __init__(self, at_prime: int | None = None, inverted: tuple[int, ...] = ()):
        if (at_prime is None) == (not inverted):
            raise ValueError("specify exactly one of at_prime / inverted")
        self.at_prime = at_prime
        self.inverted = frozenset(inverted)

    def check(self, a: Fraction):
        a = Fraction(a)
        d = a.denominator
        if self.at_prime is not None:
            if d % self.at_prime == 0:
                raise ValueError(f"denominator {d} not allowed in Z_({self.at_prime})")
        else:
            if not _prime_factors(d) <= self.inverted:
                raise ValueError(f"denominator {d} not supported on {sorted(self.inverted)}")
        return a

    def is_unit(self, a):
        if a == 0:
            return False
        if self.at_prime is not None:
            return Fraction(a).numerator % self.at_prime != 0
        return _prime_factors(Fraction(a).numerator) <= self.inverted

    def inv(self, a):
        if not self.is_unit(a):
            raise NotInvertible(f"{a} is not a unit in {self!r}")
        return Fraction(1, a)

    def divide(self, a, b):
        if b == 0:
            return None
        q = Fraction(a) / b
        try:
            return self.check(q)
        except ValueError:
            return None

    def rationalize(self):
        return Rationals(), lambda x: x

    def unit_candidates(self, bound: int):
        if self.at_prime is not None:
            raise NotImplementedError("infinitely many units; supply candidates explicitly")
        out = []
        primes = sorted(self.inverted)
        if len(primes) == 1:
            p = primes[0]
            for k in range(-bound, bound + 1):
                u = Fraction(p) ** k
                out.extend([u, -u])
        else:
            out = [Fraction(1), Fraction(-1)]
        return out

    def structure(self):
        return (type(self), self.at_prime, self.inverted)

    def __repr__(self):
        if self.at_prime is not None:
            return f"Z_({self.at_prime})"
        return "Z[" + ",".join(f"1/{p}" for p in sorted(self.inverted)) + "]"


class ModularIntegers(Ring):
    """Z/m with scalars normalized into [0, m)."""

    def __init__(self, m: int):
        if m < 2:
            raise ValueError("modulus must be >= 2")
        self.m = m
        self.char = m

    def zero(self):
        return 0

    def one(self):
        return 1 % self.m

    def from_int(self, n):
        return n % self.m

    def add(self, a, b):
        return (a + b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def dot(self, xs, ys):
        _check_lengths(xs, ys)
        return sum(map(operator.mul, xs, ys)) % self.m

    def eq(self, a, b):
        return (a - b) % self.m == 0

    def is_zero(self, a):
        return a % self.m == 0

    def is_unit(self, a):
        return math.gcd(a, self.m) == 1

    def inv(self, a):
        if not self.is_unit(a):
            raise NotInvertible(f"{a} is not a unit mod {self.m}")
        return pow(a, -1, self.m)

    def divide(self, a, b):
        # the solutions of b*x = a are x0 + k*m/g, g = gcd(b, m), with
        # 0 <= x0 < m/g the least
        g = math.gcd(b, self.m)
        if a % g:
            return None
        mm = self.m // g
        return (a // g) * pow((b // g) % mm, -1, mm) % mm

    def elements(self):
        return list(range(self.m))

    def nilpotent_bound(self):
        # meaningful for prime-power moduli: (p)^k = 0
        fs = _prime_factors(self.m)
        if len(fs) == 1:
            return _valuation(self.m, next(iter(fs)))[0]
        return None

    def structure(self):
        return (type(self), self.m)

    def __repr__(self):
        return f"Z/{self.m}"


class PrimeField(ModularIntegers):
    def __init__(self, p: int):
        if p < 2 or _prime_factors(p) != {p}:
            raise ValueError(f"{p} is not prime")
        super().__init__(p)

    def is_unit(self, a):
        return a % self.m != 0

    def __repr__(self):
        return f"F{self.m}"


# -- integer coordinates -------------------------------------------------------
# Sums of products (Ring.dot), QuotientExtension.mul and the packed Series
# product (series._mul_packed) compute over these bases on integers: the
# numerators over one common denominator, or residues, normalised once per
# result (Knuth, TAOCP vol. 2, 4.5.1: a Fraction operation pays a gcd).  The
# helpers are private, so a tracer that wraps public names counts their
# time under their caller.

def _scalar_modulus(R: Ring):
    """m when R is Z/m or F_m, 0 when R is Z, Q or a localization of Z, and
    None for every other ring: the scalars that compute on integers."""
    t = type(R)
    if t is ModularIntegers or t is PrimeField:
        return R.m
    if t is Integers or t is Rationals or t is LocalizedIntegers:
        return 0
    return None


def _dot_fractions(xs, ys):
    """x1*y1 + ... + xn*yn over Q or a localization of Z, with the value and
    type of the loop: an int when every operand is one, else one Fraction
    over the product of the lcms of the xs' and of the ys' denominators.
    Fraction(0) when empty."""
    _check_lengths(xs, ys)
    kinds = set(map(type, xs))
    kinds.update(map(type, ys))
    if kinds == {int} or not kinds <= {int, Fraction}:
        return sum(map(operator.mul, xs, ys))
    if not xs:
        return Fraction(0)
    dx = math.lcm(*[x.denominator for x in xs])
    dy = math.lcm(*[y.denominator for y in ys])
    nx = [x.numerator * (dx // x.denominator) for x in xs]
    ny = [y.numerator * (dy // y.denominator) for y in ys]
    return Fraction(sum(map(operator.mul, nx, ny)), dx * dy)


def _reduce(c: list, mod: list, m: int) -> list:
    """c (low first, 2d - 1 integers) modulo the monic modulus mod of degree
    d, with x^k -> x^k - x^(k-d) * mod from the top; then mod m when m."""
    d = len(mod) - 1
    for k in range(len(c) - 1, d - 1, -1):
        q = c[k]
        if q:
            for j in range(d):
                c[k - d + j] -= q * mod[j]
    return [v % m for v in c[:d]] if m else c[:d]


def _integer_form(base: Ring, modulus: tuple):
    """(m, the modulus as ints, whether coordinates are Fractions) when
    base[y]/(modulus) computes on integers, else None.  A Fraction with
    denominator 1 counts as an integer only over a base whose zero is a
    Fraction: over Z or Z/m the loop's products with it would give Fractions."""
    m = _scalar_modulus(base)
    frac = type(base.zero()) is Fraction
    mod = []
    for c in modulus:
        if frac and type(c) is Fraction and c.denominator == 1:
            c = c.numerator
        if type(c) is not int:
            return None
        mod.append(c)
    return None if m is None else (m, mod, frac)


def _mul_integers(a, b, m: int, mod: list, frac: bool):
    """a*b in a QuotientExtension with integer form (m, mod, frac): both
    operands over one common denominator (Fractions) or as residues (Z/m),
    one convolution, one reduction by the integer modulus.  None when an
    operand over an int-valued base holds a non-int, which the loop keeps."""
    if frac:
        da = math.lcm(*[x.denominator for x in a])
        db = math.lcm(*[x.denominator for x in b])
        a = [x.numerator * (da // x.denominator) for x in a]
        b = [x.numerator * (db // x.denominator) for x in b]
    elif not all(type(x) is int for x in a) or not all(type(x) is int for x in b):
        return None
    c = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                c[i + j] += x * y
    c = _reduce(c, mod, m)
    if frac:
        den = da * db
        return tuple([Fraction(v, den) for v in c])
    return tuple(c)


def _columns(vs, d: int, frac: bool):
    """The d coordinate columns of the tuples vs as integers, over their one
    common denominator (Fractions) or as they are (ints), and that
    denominator; None when a coordinate over an int-valued base is not an int."""
    cols = list(zip(*vs)) if vs else [()] * d
    if frac:
        den = math.lcm(*[v.denominator for col in cols for v in col])
        return [[v.numerator * (den // v.denominator) for v in col] for col in cols], den
    if not all(type(v) is int for col in cols for v in col):
        return None
    return cols, 1


def _dot_integers(xs, ys, m: int, mod: list, frac: bool):
    """x1*y1 + ... + xn*yn in a QuotientExtension with integer form
    (m, mod, frac): one convolution of integer coordinate columns, one
    reduction by the integer modulus, then Fraction(v, Dx*Dy) or v % m per
    coordinate.  None when the loop keeps the sum (a non-int over an
    int-valued base).  A single product keeps _mul_integers, which takes
    about two thirds of the time of this column form for one pair."""
    _check_lengths(xs, ys)
    d = len(mod) - 1
    cx, cy = _columns(xs, d, frac), _columns(ys, d, frac)
    if cx is None or cy is None:
        return None
    (X, dx), (Y, dy) = cx, cy
    c = [0] * (2 * d - 1)
    for i, u in enumerate(X):
        for j, v in enumerate(Y):
            c[i + j] += sum(map(operator.mul, u, v))
    c = _reduce(c, mod, m)
    if frac:
        den = dx * dy
        return tuple([Fraction(v, den) for v in c])
    return tuple(c)


class QuotientExtension(Ring):
    """base[y]/(f) for a monic modulus f.  Scalars are coefficient tuples of
    length deg(f), low degree first.

    Over Z, Q, Z_(p), Z[1/p], Z/m or F_p with an integer modulus a product,
    and a sum of products (dot), is one integer convolution reduced by that
    modulus, with the values and Python types of the coefficient loop, which
    every other base runs: Fraction coordinates when the base's zero is a
    Fraction, residues in [0, m) over Z/m."""

    def __init__(self, base: Ring, modulus: tuple, gen_name: str = "w"):
        mod = tuple(modulus)
        if len(mod) < 2:
            raise ValueError("modulus must have degree >= 1")
        if not base.eq(mod[-1], base.one()):
            raise ValueError("modulus must be monic")
        self.base = base
        self.modulus = mod
        self.deg = len(mod) - 1
        self.gen_name = gen_name
        self.char = base.char
        self._ints = _integer_form(base, mod)
        self._elems = None

    def zero(self):
        z = self.base.zero()
        return tuple([z] * self.deg)

    def one(self):
        out = [self.base.zero()] * self.deg
        out[0] = self.base.one()
        return tuple(out)

    def gen(self):
        out = [self.base.zero()] * self.deg
        if self.deg == 1:
            # y = -f0 in a degree-one quotient
            return tuple([self.base.neg(self.modulus[0])])
        out[1] = self.base.one()
        return tuple(out)

    def from_int(self, n):
        out = [self.base.zero()] * self.deg
        out[0] = self.base.from_int(n)
        return tuple(out)

    def add(self, a, b):
        return tuple([self.base.add(x, y) for x, y in zip(a, b)])

    def neg(self, a):
        return tuple([self.base.neg(x) for x in a])

    def _reduce(self, coeffs: list):
        # coeffs: low-first, possibly long; reduce modulo the monic modulus
        B = self.base
        d = self.deg
        for i in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs[i]
            if B.is_zero(c):
                continue
            for j in range(d + 1):
                coeffs[i - d + j] = B.sub(coeffs[i - d + j], B.mul(c, self.modulus[j]))
        return tuple(coeffs[:d])

    def mul(self, a, b):
        if self._ints is not None:
            out = _mul_integers(a, b, *self._ints)
            if out is not None:
                return out
        B = self.base
        out = [B.zero()] * (2 * self.deg - 1)
        for i, x in enumerate(a):
            if B.is_zero(x):
                continue
            for j, y in enumerate(b):
                out[i + j] = B.add(out[i + j], B.mul(x, y))
        return self._reduce(out)

    def dot(self, xs, ys):
        if self._ints is not None:
            out = _dot_integers(xs, ys, *self._ints)
            if out is not None:
                return out
        return super().dot(xs, ys)

    def scale_int(self, a, n: int):
        return tuple([self.base.scale_int(x, n) for x in a])

    def eq(self, a, b):
        return all(self.base.eq(x, y) for x, y in zip(a, b))

    def is_zero(self, a):
        return all(self.base.is_zero(x) for x in a)

    def is_unit(self, a):
        try:
            self.inv(a)
            return True
        except NotInvertible:
            return False

    def inv(self, a):
        if self.is_zero(a):
            raise NotInvertible("zero in quotient extension")
        # finite base: brute force; degree 2: norm trick; else fail loudly
        try:
            elems = self._element_tuple()
        except NotImplementedError:
            elems = None
        if elems is not None:
            one = self.one()
            for cand in elems:
                if self.eq(self.mul(a, cand), one):
                    return cand
            raise NotInvertible(f"{a} not a unit in {self!r}")
        if self.deg == 2:
            B = self.base
            f0, f1, _ = self.modulus
            a0, a1 = a
            # conjugate of a0 + a1 y under y -> -f1 - y
            c0 = B.sub(a0, B.mul(a1, f1))
            c1 = B.neg(a1)
            prod = self.mul(a, (c0, c1))
            if not B.is_zero(prod[1]):
                raise NotInvertible("norm form failed")
            n = prod[0]
            q = B.divide(B.one(), n)
            if q is None:
                raise NotInvertible(f"norm {B.render(n)} not a unit")
            return tuple([B.mul(c0, q), B.mul(c1, q)])
        raise NotInvertible("inversion unsupported for this extension")

    def divide(self, a, b):
        if all(self.base.is_zero(y) for y in b[1:]):
            out = _divide_each(self.base, dict(enumerate(a)), b[0])
            return None if out is None else tuple(out.values())
        try:
            return self.mul(a, self.inv(b))
        except NotInvertible:
            return None

    def _element_tuple(self):
        """Every element, the first coordinate varying fastest, built on the
        first call; NotImplementedError over an infinite base."""
        if self._elems is None:
            self._elems = tuple(tuple(t[::-1]) for t in
                                itertools.product(self.base.elements(), repeat=self.deg))
        return self._elems

    def elements(self):
        return list(self._element_tuple())

    def rationalize(self):
        rbase, f = self.base.rationalize()
        target = QuotientExtension(rbase, tuple(f(c) for c in self.modulus), self.gen_name)
        return target, lambda a: tuple(f(x) for x in a)

    def unit_candidates(self, bound: int):
        raise NotImplementedError("no unit sweep over an extension; supply candidates explicitly")

    def render(self, a):
        B = self.base
        parts = []
        for i, c in enumerate(a):
            if B.is_zero(c):
                continue
            if i == 0:
                parts.append(B.render(c))
            else:
                head = self.gen_name if i == 1 else f"{self.gen_name}^{i}"
                parts.append(head if B.eq(c, B.one()) else f"({B.render(c)})*{head}")
        return " + ".join(parts) if parts else "0"

    def structure(self):
        return (type(self), self.base.structure(), self.modulus, self.gen_name)

    def __repr__(self):
        return f"{self.base!r}[{self.gen_name}]/(deg {self.deg})"


# Common instances / constructors -------------------------------------------

ZZ = Integers()
QQ = Rationals()


def Z_local(p: int) -> LocalizedIntegers:
    return LocalizedIntegers(at_prime=p)


def Z_inverted(*primes: int) -> LocalizedIntegers:
    return LocalizedIntegers(inverted=tuple(primes))


def GF(q: int) -> Ring:
    """Finite field of order q for q in {2, 3, 4, 5, 7, 8, ...p, p^k small}."""
    fs = _prime_factors(q)
    if len(fs) != 1:
        raise ValueError(f"{q} is not a prime power")
    p = next(iter(fs))
    if q == p:
        return PrimeField(p)
    if q == 4:
        return QuotientExtension(PrimeField(2), (1, 1, 1), gen_name="w")
    if q == 8:
        return QuotientExtension(PrimeField(2), (1, 1, 0, 1), gen_name="g")
    raise ValueError(f"no builtin model for GF({q})")


def omega_ring() -> QuotientExtension:
    """Z[1/3][w]/(w^2+w+1): third root of unity over Z with 3 inverted."""
    return QuotientExtension(Z_inverted(3), (Fraction(1), Fraction(1), Fraction(1)), gen_name="w")


def sqrt_minus3(ring: QuotientExtension):
    """1 + 2w, a square root of -3 in a ring containing w with w^2+w+1=0."""
    w = ring.gen()
    return ring.add(ring.one(), ring.scale_int(w, 2))
