"""Sparse multivariate polynomials with generator weights.

A polynomial is a dict mapping exponent tuples to nonzero ring scalars.
Generators may carry weights (weighted degree = sum exp*weight) and may be
flagged invertible, in which case negative exponents are allowed on them
(Laurent polynomials).

PolyRing doubles as a coefficient Ring, so towers like Z[A,B] inside a power
series in two more variables work without special cases.
"""

from __future__ import annotations

import operator

from .errors import NotInvertible
from .rings import Ring, _check_lengths


class PolyRing(Ring):
    def __init__(self, base: Ring, gens: tuple[str, ...], weights=None, laurent=()):
        self.base = base
        self.gens = tuple(gens)
        self.n = len(self.gens)
        self.weights = tuple(weights) if weights is not None else (1,) * self.n
        if len(self.weights) != self.n:
            raise ValueError("one weight per generator")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        self.laurent = frozenset(
            self.gens.index(g) if isinstance(g, str) else g for g in laurent
        )
        self.char = base.char

    # -- construction --------------------------------------------------

    def poly(self, terms: dict) -> "Poly":
        clean = {}
        for exp, c in terms.items():
            exp = tuple(exp)
            if len(exp) != self.n:
                raise ValueError("exponent arity mismatch")
            for i, e in enumerate(exp):
                if e < 0 and i not in self.laurent:
                    raise ValueError(f"negative exponent on non-invertible generator {self.gens[i]}")
            if not self.base.is_zero(c):
                clean[exp] = self.base.add(clean[exp], c) if exp in clean else c
        return Poly(self, {e: c for e, c in clean.items() if not self.base.is_zero(c)})

    def zero(self):
        return Poly(self, {})

    def one(self):
        return Poly(self, {(0,) * self.n: self.base.one()})

    def from_int(self, k):
        c = self.base.from_int(k)
        return self.poly({(0,) * self.n: c})

    def const(self, c):
        return self.poly({(0,) * self.n: c})

    def gen(self, name: str, power: int = 1) -> "Poly":
        i = self.gens.index(name)
        exp = [0] * self.n
        exp[i] = power
        return self.poly({tuple(exp): self.base.one()})

    def monomial(self, exp, coeff=None):
        return self.poly({tuple(exp): coeff if coeff is not None else self.base.one()})

    # -- Ring interface -------------------------------------------------

    def add(self, a, b):
        out = dict(a.terms)
        B = self.base
        for e, c in b.terms.items():
            if e in out:
                s = B.add(out[e], c)
                if B.is_zero(s):
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = c
        return Poly(self, out)

    def neg(self, a):
        return Poly(self, {e: self.base.neg(c) for e, c in a.terms.items()})

    def mul(self, a, b):
        B = self.base
        out = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                p = B.mul(c1, c2)
                if e in out:
                    s = B.add(out[e], p)
                    if B.is_zero(s):
                        del out[e]
                    else:
                        out[e] = s
                elif not B.is_zero(p):
                    out[e] = p
        return Poly(self, out)

    def dot(self, xs, ys):
        """x1*y1 + ... + xn*yn with the products grouped by exponent: one
        base.dot per exponent and zeros dropped once.  Where the scalars are
        of more than one Python type (int and Fraction over Q), the type of
        the loop's sum depends on where its partial sums cancel, so those
        sums take the loop."""
        _check_lengths(xs, ys)
        if len({type(c) for p in (*xs, *ys) for c in p.terms.values()}) > 1:
            return super().dot(xs, ys)
        groups = {}
        for a, b in zip(xs, ys):
            for e1, c1 in a.terms.items():
                for e2, c2 in b.terms.items():
                    e = tuple(map(operator.add, e1, e2))
                    if e in groups:
                        us, vs = groups[e]
                        us.append(c1)
                        vs.append(c2)
                    else:
                        groups[e] = ([c1], [c2])
        B = self.base
        out = {}
        for e, (us, vs) in groups.items():
            c = B.dot(us, vs)
            if not B.is_zero(c):
                out[e] = c
        return Poly(self, out)

    def eq(self, a, b):
        if set(a.terms) != set(b.terms):
            return False
        return all(self.base.eq(c, b.terms[e]) for e, c in a.terms.items())

    def is_zero(self, a):
        return not a.terms

    def is_unit(self, a):
        if len(a.terms) != 1:
            return False
        (exp, c), = a.terms.items()
        if any(e != 0 and i not in self.laurent for i, e in enumerate(exp)):
            return False
        return self.base.is_unit(c)

    def inv(self, a):
        if not self.is_unit(a):
            raise NotInvertible(f"{self.render(a)} is not a unit")
        (exp, c), = a.terms.items()
        return self.poly({tuple(-e for e in exp): self.base.inv(c)})

    def divide(self, a, b):
        if self.is_unit(b):
            return self.mul(a, self.inv(b))
        # monomial divisor with non-unit coefficient: coefficientwise attempt
        if len(b.terms) == 1:
            (exp, c), = b.terms.items()
            out = {}
            for e, x in a.terms.items():
                q = self.base.divide(x, c)
                if q is None:
                    return None
                ne = tuple(u - v for u, v in zip(e, exp))
                for i, ev in enumerate(ne):
                    if ev < 0 and i not in self.laurent:
                        return None
                out[ne] = q
            return Poly(self, out)
        return None

    def solve_int(self, n, b):
        out = {}
        for e, c in b.terms.items():
            sols = self.base.solve_int(n, c)
            if not sols:
                return []
            out[e] = sols[0]
        return [Poly(self, out)]

    def rationalize(self):
        rbase, f = self.base.rationalize()
        target = PolyRing(rbase, self.gens, self.weights, self.laurent)
        return target, lambda p: Poly(target, {e: f(c) for e, c in p.terms.items()})

    def render(self, p) -> str:
        if not p.terms:
            return "0"
        parts = []
        for e in sorted(p.terms):
            c = p.terms[e]
            mono = "*".join(
                f"{g}^{k}" if k != 1 else g
                for g, k in zip(self.gens, e) if k != 0
            )
            cs = self.base.render(c)
            if mono:
                parts.append(f"({cs})*{mono}" if cs not in ("1",) else mono)
            else:
                parts.append(cs)
        return " + ".join(parts)

    def structure(self):
        return (type(self), self.base.structure(), self.gens, self.weights, self.laurent)

    def __repr__(self):
        desc = ",".join(
            f"{g}:{w}" + ("~" if i in self.laurent else "")
            for i, (g, w) in enumerate(zip(self.gens, self.weights)))
        return f"{self.base!r}[{desc}]"


class Poly:
    __slots__ = ("pring", "terms")

    def __init__(self, pring: PolyRing, terms: dict):
        self.pring = pring
        self.terms = terms

    # convenience operators (ring ops live on PolyRing)
    def __add__(self, other):
        return self.pring.add(self, self._co(other))

    def __radd__(self, other):
        return self.pring.add(self._co(other), self)

    def __sub__(self, other):
        return self.pring.sub(self, self._co(other))

    def __rsub__(self, other):
        return self.pring.sub(self._co(other), self)

    def __neg__(self):
        return self.pring.neg(self)

    def __mul__(self, other):
        return self.pring.mul(self, self._co(other))

    def __rmul__(self, other):
        return self.pring.mul(self._co(other), self)

    def __pow__(self, n):
        return self.pring.pow(self, n)

    def _co(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, int):
            return self.pring.from_int(other)
        return self.pring.const(other)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            other = self._co(other)
        return self.pring.eq(self, other)

    def __hash__(self):
        raise TypeError("Poly is unhashable")

    def is_zero(self):
        return not self.terms

    def wdegree(self):
        """Weighted total degree; None for the zero polynomial."""
        if not self.terms:
            return None
        w = self.pring.weights
        return max(sum(e * k for e, k in zip(exp, w)) for exp in self.terms)

    def is_homogeneous(self):
        w = self.pring.weights
        degs = {sum(x * k for x, k in zip(e, w)) for e in self.terms}
        return len(degs) <= 1

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), self.pring.base.zero())

    def substitute(self, images: dict):
        """Map generators to scalars or polynomials of another ring.

        images: gen name -> value living in a common target Ring `ring`;
        supply the target via images['__ring__'].
        """
        target = images["__ring__"]
        out = target.zero()
        for e, c in self.terms.items():
            term = images["__coeff__"](c) if "__coeff__" in images else target.const(c)
            for i, k in enumerate(e):
                if k == 0:
                    continue
                g = images[self.pring.gens[i]]
                term = target.mul(term, target.pow(g, k) if k > 0 else target.inv(target.pow(g, -k)))
            out = target.add(out, term)
        return out

    def __repr__(self):
        return self.pring.render(self)


def monomials_of_weighted_degree(weights: tuple[int, ...], d: int):
    """All exponent tuples e >= 0 with sum e_i * w_i == d (w_i > 0)."""
    n = len(weights)
    out = []

    def rec(i, rem, acc):
        if i == n:
            if rem == 0:
                out.append(tuple(acc))
            return
        w = weights[i]
        for k in range(rem // w + 1):
            rec(i + 1, rem - k * w, acc + [k])

    if all(w > 0 for w in weights):
        rec(0, d, [])
    else:
        raise ValueError("weights must be positive for enumeration")
    return out
