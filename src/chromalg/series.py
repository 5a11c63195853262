"""Truncated multivariate power series, exact coefficients.

A Series stores terms of total degree < prec.  Binary operations require the
same variable tuple (no implicit unions) and truncate to the minimum prec.
SeriesRing wraps univariate series as a coefficient Ring, giving carriers such
as Z/4[[b]] or Q[[b]] whose elements in turn coefficient other series.

Precision contracts of the iterative algorithms (Brent & Kung, J. ACM 25,
1978).  Each result is exact below its prec, and no step works above the
precision it needs:
  * inverse: Newton g <- g*(2 - f*g); step i runs at min(2^i, prec), so
    ceil(log2 prec) steps of two multiplications each.
  * compose_reverse: g = h(f^-1) at P = min(h.prec, f.prec) solves
    g(f) = h one degree at a time, g_n = (h_n - sum_(0<k<n) g_k [f^k]_n)
    * f1^-n, reading [f^k]_n only for 1 <= k < n < P: the powers f^2 ..
    f^(P-2) are made once at P, max(P - 3, 0) products, and each g_n is
    one R.dot over the pairs with both factors nonzero.  It divides only by
    the unit f1 = f'(0), never by an integer, and makes no composition.
    reverse is x(f^-1).
  * elliptic.curve_w_series: Newton w <- w - G(w) * G'(w)^-1 on
    G(w) = w - (z^3 + a1 z w + ...) from w = z^3, exact below z^4; step i
    runs at min(2^(i+3), prec), so max(0, ceil(log2(prec/4))) steps, each
    inverting G'(w) only below the degrees it gains.  G'(0) = 1, so no step
    divides by an integer.  Then one full-precision fixed-point pass must
    reproduce w (AlgebraError otherwise).
  * fgl.law_from_log: exp(lam(x) + lam(y)) below P from lam known below P,
    as sum_n A_n(x) lam(y)^n with A_0 = x and A_n = w A_(n-1)'/n for
    w = 1/lam' (known below P - 1).  A_(n-1)' is cut to P - n before the
    product, so A_n is exact below P - n, and coefficient (i, j) reads it
    only at i < P - j <= P - n.  Only i >= j is assembled, then mirrored:
    (P - 1)//2 products with w, one product per term of each column j,
    the powers lam^n below y^((P + 1)//2), no compose and no reverse.
  * fgl.find_iso: raises TruncationError unless N < min(F.prec, G.prec).
    The powers F^k are made once per call at precision N + 1, up to the
    largest k < N with c_k != 0; F^(k-1) has order k - 1, so the product
    F^(k-1)*F packs F only below degree N - k + 2 and unpacks only degrees
    k..N.  G(phi x, phi y) = sum_i phi(x)^i
    g_i(phi(y)) for G = sum_i x^i g_i(y) is read degree by degree from two
    univariate scalar tables, [t^a] phi^i and [t^b] g_i(phi(t)), one column
    per degree, with no composition; column a is final once c_1..c_a are
    known.  phi(F) is not kept as a series: step d reads each coefficient
    (a, d - a) of G(phi x, phi y) - phi(F) as one R.dot, the tables'
    products beside -c_k [F^k]_(a, d-a) for the known c_k, k < d.

Composition contract.  f.compose(subs) works at the precision P of the
least precise of f and the substitutions, and every substitution has order
>= 1, so a term of f of total degree >= P adds nothing.  It writes
f = sum of x1^i * g_i(x2..xn) and runs Horner's rule in the first outer
variable, h <- g_i(s2..sn) + s1*h from the top i down:
  * step i runs at precision P - i, since h is then multiplied by s1^i, of
    order >= i.  A univariate f (g_i the constant c_i) makes no power and no
    scalar combination: P - 2 products at precisions 3..P for a dense s1 (at
    precision 2 it has one term), and a missing c_i is a step s1*h alone;
  * each g_i is evaluated at precision P - i by groups of its terms that
    share all exponents but the last: a scalar combination (scales and sums)
    of the cached powers of the last substitution, without its terms that
    the head's powers push to total degree >= P - i, multiplied once by the
    cached powers of the head's substitutions s2..s(n-1);
  * no power of s1 is made.  Each power s^k of s2..sn is made once, at P,
    as s^(k-1) * s; a substitution that uses one variable of a multivariate
    target (phi(x), phi(y), a bare generator) is powered as a univariate
    series, where it packs, and then embedded.  When f is univariate and s1
    uses one variable, the Horner steps run univariately and h is embedded
    once.
  Paterson-Stockmeyer (SIAM J. Comput. 2, 1973) would make fewer products
  than Horner's P - 2, but keeps a scalar combination of powers, which over
  R[[b]] is one b-series product per term per power.

Multiplication contract.  Series.__mul__ is the only product: it meets both
operands at the smaller precision P, and the product is the zero series when
either is zero.  A factor with one term c*x^e is a shift and a scale of the
other (_mul_term, which Series.scale also runs with e = 0): every term of the
other factor moves by e, those of total degree >= P drop, and each
coefficient v becomes R.mul(c, v) (the operands' order kept), dropped when
it vanishes, as over Z/8 where 4*2 = 0.  No two of these products share an
exponent, so none is summed.  When c is exactly the ring's one, a term only
moves, with no scalar product.  That is the loop's value and Python type
only where 1*v is v: over Z, Z/m (residues normalised into [0, m)) and F_p,
whose one is the int 1, and over one level of [[t]] over those, whose one is
the series 1, when c and every coefficient of the other factor sit at the
ring's own context.  Over Q, Z_(p) and Z[1/p] the one is Fraction(1), which
turns an int into a Fraction, so those, QuotientExtensions, PolyRings and
deeper towers take a product.  Over Z/2^k[[b]] and F_2[[b]] the
substitutions t -> x and t -> y, phi = t and the products by x^d and y^d
are shifts.  Two factors of two or more terms multiply over packed carriers
with one big-integer product (Kronecker substitution; Harvey, J. Symb.
Comput. 44, 2009), and otherwise with the term-by-term loop _mul_dict, which
groups the term pairs by output exponent and makes one R.dot per exponent (a
sum of products normalised once over Z, Q, Z_(p), Z[1/p], Z/m, F_p and
integral QuotientExtensions; over a PolyRing, one base dot per monomial; the
R.mul and R.add loop elsewhere):
  * packed carriers: scalars of exactly Integers, Rationals,
    LocalizedIntegers, ModularIntegers or PrimeField; a SeriesRing of
    precision Pb over one of those whose coefficients all sit at the ring's
    own context; a QuotientExtension over one of those whose modulus has
    integer coefficients, ints when the base's zero is an int (omega_ring(),
    GF(4));
  * trimming: for operands of orders oa and ob, a term of a of total degree
    >= P - ob (of b, >= P - oa) meets only product degrees >= P, so it is
    not packed, and the product is the zero series once oa + ob >= P.  That
    shortcut comes after the refusals that read whole operands (the
    carrier, and a SeriesRing coefficient at another context);
  * slot layout, for n variables: exponent e of an operand of order o has
    the index (|e| - o)*P^(n-1) + sum of e_k*P^(n-k) over k >= 2, so each
    packed integer starts at its lowest block, and inner slot j of it sits
    at slot index*r + j.  Product slot index i then holds the exponent of
    index i + (oa + ob)*P^(n-1), and only total degrees oa + ob to P - 1
    are unpacked.  The inner radix r is 1 for scalars (j = 0),
    2Pb - 1 for a SeriesRing (j the b-degree) and 2*deg - 1 for a
    QuotientExtension (j the w-coordinate), so an inner product stays in its
    block.  Of a SeriesRing block only the slots j < Pb are read back, the
    b-degrees that R[[b]]/(b^Pb) keeps, not all 2Pb - 1.  Total degree is
    the top digit: a product term of total degree < P has digits e_k < P
    and decodes uniquely, and a digit sum that reaches P carries only into
    blocks of total degree >= P, which are dropped.  For n = 1 the index is
    the degree;
  * QuotientExtension blocks are reduced after unpacking: the 2*deg - 1
    integers of a block are reduced by the monic integer modulus from the
    top, x^k -> x^k - x^(k-deg) * f, then taken mod m or over the common
    denominator.  A QuotientExtension scalar product or sum of products
    (QuotientExtension.mul and .dot; the loop calls dot) is the same
    reduction, rings._reduce, of the convolution of its operands' integer
    coordinates;
  * density rule: pack only when E_a * E_b >= S, where E counts an operand's
    packed scalar entries after trimming (scalars, b-coefficients, or
    w-coordinates: deg per term) and S is the number of slots the product
    spans, from block (oa + ob)*P^(n-1) up to the last slot of total
    degree < P.  E_a * E_b is the number of scalar
    products the loop makes, so sparse operands take the loop;
  * scalars: Z/m residues pack unsigned in [0, m) and unpack with % m;
    Z, Q and Z_(p) pack as signed integers, Q and Z_(p) scaled by the lcm of
    each operand's denominators, and the coefficients come back as
    Fraction(C, Da*Db).  An operand that mixes int and Fraction scalars takes
    the loop, so every result has the loop's values and Python types.  Over
    a QuotientExtension whose base zero is Fraction(0) every coordinate comes
    back as a Fraction, as the loop's sums into that zero give;
  * width: a slot has w >= bitlen(max|a|) + bitlen(max|b|) + bitlen(pairs)
    + 2 bits, whole bytes, where pairs = min(E_a, E_b) bounds the products
    summed into one slot: |slot| < 2^(w-2), so no slot carries into the
    next and signed slots decode with a borrow-free 2^(w-1) offset;
  * the loop runs for every other ring (PolyRing, deeper towers,
    QuotientExtension with a non-integral modulus or another base), tower
    coefficients at another precision or context, mixed int/Fraction
    operands and operands below the density rule.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import (CompositionError, MixedVariablesError, NotInvertible,
                     PreparationFailed, TruncationError)
from .linalg import solve_int_exact
from .rings import (Integers, ModularIntegers, PrimeField, QuotientExtension, Ring,
                    _divide_each, _reduce, _scalar_modulus)


class SeriesCtx:
    __slots__ = ("ring", "vars", "prec")

    def __init__(self, ring: Ring, vars: tuple[str, ...], prec: int):
        if prec < 1:
            raise ValueError("prec must be >= 1")
        self.ring = ring
        self.vars = tuple(vars)
        self.prec = prec

    def compatible(self, other: "SeriesCtx"):
        if self.vars != other.vars:
            raise MixedVariablesError(f"{self.vars} vs {other.vars}")
        if self.ring is not other.ring and self.ring.structure() != other.ring.structure():
            raise MixedVariablesError(
                f"coefficient rings differ: {self.ring!r} vs {other.ring!r}")

    def at_prec(self, prec: int) -> "SeriesCtx":
        return SeriesCtx(self.ring, self.vars, prec)

    def series(self, terms: dict) -> "Series":
        clean = {}
        n = len(self.vars)
        for exp, c in terms.items():
            exp = tuple(exp)
            if len(exp) != n or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent {exp}")
            if sum(exp) >= self.prec:
                continue
            if not self.ring.is_zero(c):
                clean[exp] = self.ring.add(clean[exp], c) if exp in clean else c
        return Series(self, {e: c for e, c in clean.items() if not self.ring.is_zero(c)})

    def zero(self):
        return Series(self, {})

    def one(self):
        return self.series({(0,) * len(self.vars): self.ring.one()})

    def const(self, c):
        return self.series({(0,) * len(self.vars): c})

    def from_int(self, n):
        return self.const(self.ring.from_int(n))

    def gen(self, name: str):
        i = self.vars.index(name)
        e = [0] * len(self.vars)
        e[i] = 1
        return self.series({tuple(e): self.ring.one()})


class Series:
    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: SeriesCtx, terms: dict):
        self.ctx = ctx
        self.terms = terms

    # -- basic queries ---------------------------------------------------

    @property
    def prec(self):
        return self.ctx.prec

    def coefficient(self, exp):
        exp = tuple(exp)
        if sum(exp) >= self.ctx.prec:
            raise TruncationError(f"degree {sum(exp)} >= prec {self.ctx.prec}")
        return self.terms.get(exp, self.ctx.ring.zero())

    def constant_term(self):
        return self.terms.get((0,) * len(self.ctx.vars), self.ctx.ring.zero())

    def is_zero(self):
        return not self.terms

    def order(self):
        """Least total degree of a nonzero term; None if zero to precision."""
        if not self.terms:
            return None
        return min(map(sum, self.terms))

    def truncate(self, prec: int) -> "Series":
        if prec >= self.ctx.prec:
            return self
        ctx = self.ctx.at_prec(prec)
        return Series(ctx, {e: c for e, c in self.terms.items() if sum(e) < prec})

    # -- arithmetic --------------------------------------------------------

    def _meet(self, other: "Series"):
        self.ctx.compatible(other.ctx)
        if self.ctx.prec == other.ctx.prec:
            return self, other
        prec = min(self.ctx.prec, other.ctx.prec)
        return self.truncate(prec), other.truncate(prec)

    def __add__(self, other):
        a, b = self._meet(self._co(other))
        R = a.ctx.ring
        out = dict(a.terms)
        for e, c in b.terms.items():
            if e in out:
                s = R.add(out[e], c)
                if R.is_zero(s):
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = c
        return Series(a.ctx, out)

    def __neg__(self):
        R = self.ctx.ring
        return Series(self.ctx, {e: R.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._co(other))

    def __mul__(self, other):
        a, b = self._meet(self._co(other))
        if len(a.terms) > 1 and len(b.terms) > 1:
            out = _mul_packed(a, b)
            return out if out is not None else _mul_dict(a, b)
        if not a.terms or not b.terms:
            return Series(a.ctx, {})
        # a one-term factor scales the other; of two, b when its coefficient
        # is the one, which then only shifts a
        if len(a.terms) == 1 and not (len(b.terms) == 1
                                      and _is_one(a.ctx.ring, *b.terms.values())):
            ((e, c),) = a.terms.items()
            return _mul_term(a.ctx, e, c, b, True)
        ((e, c),) = b.terms.items()
        return _mul_term(a.ctx, e, c, a, False)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._co(other) - self

    def _co(self, other):
        if isinstance(other, Series):
            return other
        if isinstance(other, int):
            return self.ctx.from_int(other)
        return self.ctx.const(other)

    def scale(self, c):
        """c times each coefficient, as a product by the one-term factor c:
        no product when c is zero, and none when c is the ring's one on the
        carriers that the multiplication contract names."""
        if self.ctx.ring.is_zero(c):
            return Series(self.ctx, {})
        return _mul_term(self.ctx, (0,) * len(self.ctx.vars), c, self, True)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"negative exponent {n}: use inverse")
        out = self.ctx.at_prec(self.ctx.prec).one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        a, b = self._meet(self._co(other))
        if set(a.terms) != set(b.terms):
            return False
        R = a.ctx.ring
        return all(R.eq(c, b.terms[e]) for e, c in a.terms.items())

    def __hash__(self):
        raise TypeError("Series is unhashable")

    # -- structural ops ----------------------------------------------------

    def map_coefficients(self, fn, target_ring: Ring) -> "Series":
        ctx = SeriesCtx(target_ring, self.ctx.vars, self.ctx.prec)
        out = {}
        for e, c in self.terms.items():
            v = fn(c)
            if not target_ring.is_zero(v):
                out[e] = v
        return Series(ctx, out)

    def set_var_zero(self, name: str) -> "Series":
        i = self.ctx.vars.index(name)
        return Series(self.ctx, {e: c for e, c in self.terms.items() if e[i] == 0})

    def drop_var(self, name: str) -> "Series":
        """Remove a variable that no longer occurs."""
        i = self.ctx.vars.index(name)
        ctx = SeriesCtx(self.ctx.ring, self.ctx.vars[:i] + self.ctx.vars[i + 1:], self.ctx.prec)
        out = {}
        for e, c in self.terms.items():
            if e[i] != 0:
                raise ValueError(f"{name} still occurs")
            out[e[:i] + e[i + 1:]] = c
        return Series(ctx, out)

    def rename(self, new_vars: tuple[str, ...]) -> "Series":
        ctx = SeriesCtx(self.ctx.ring, tuple(new_vars), self.ctx.prec)
        return Series(ctx, dict(self.terms))

    def compose(self, subs: dict) -> "Series":
        """Substitute subs[var] (a Series in a common target ctx) for each var.

        Every substituted series must have zero constant term.  Horner's rule
        in the first outer variable, at a precision that shrinks by one per
        step; see the composition contract in the module docstring.
        """
        targets = [s for s in subs.values() if isinstance(s, Series)]
        if not targets:
            raise ValueError("need at least one substitution series")
        tctx = targets[0].ctx
        for s in targets:
            tctx.compatible(s.ctx)
        prec = min([self.ctx.prec] + [s.ctx.prec for s in targets])
        tctx = tctx.at_prec(prec)
        R = self.ctx.ring
        pows = []
        for v in self.ctx.vars:
            if v not in subs:
                raise ValueError(f"no substitution for {v}")
            s = subs[v]
            if not R.is_zero(s.constant_term()):
                raise CompositionError(f"substitution for {v} has nonzero constant term")
            pows.append(_Powers(s.truncate(prec), tctx))
        # f = sum of x1^i * g_i(x2..xn); every substitution has order >= 1, so
        # a term of total degree >= prec adds nothing
        rows = {}
        for e, c in self.terms.items():
            if sum(e) < prec:
                rows.setdefault(e[0], {})[e[1:]] = c
        if not rows:
            return tctx.zero()
        first, rest = pows[0], pows[1:]
        if rest:
            return _horner(first[1], rows, lambda i, p: _grouped(rows[i], rest, p))
        s = first.power(1)
        h = _horner(s, rows, lambda i, p: s.ctx.at_prec(p).const(rows[i][()]))
        return first.embed(h.terms, prec)

    # -- univariate helpers --------------------------------------------------

    def _univar(self):
        if len(self.ctx.vars) != 1:
            raise ValueError("univariate operation on multivariate series")

    def ucoeff(self, k: int):
        self._univar()
        return self.terms.get((k,), self.ctx.ring.zero())

    def inverse(self) -> "Series":
        """Multiplicative inverse; constant term must be a unit.

        Newton g <- g*(2 - f*g) doubles the correct total degree per step, so
        step i runs with f and g truncated to min(2^i, prec)."""
        R = self.ctx.ring
        c0 = self.constant_term()
        if not R.is_unit(c0):
            raise NotInvertible("constant term is not a unit")
        g = self.ctx.at_prec(1).const(R.inv(c0))
        order = 1
        while order < self.ctx.prec:
            order = min(2 * order, self.ctx.prec)
            f = self.truncate(order)
            g = Series(f.ctx, g.terms)
            g = g * (f.ctx.from_int(2) - f * g)
        return g

    def derivative(self, name: str | None = None) -> "Series":
        """d/d(name) at the precision of self.  The top degree is not
        certified: a series known below n has a derivative known only below
        n - 1, since its degree n - 1 term needs the unknown degree n.  The
        callers that read that degree cut it first: elliptic.two_series and
        fgl.law_from_log; fgl.recognize_in_family reads dF/dx
        and dF/dy only times x^d and y^d, d >= 1, which drops it.
        elliptic.curve_log integrates dz/G_w and differentiates nothing."""
        i = 0 if name is None and len(self.ctx.vars) == 1 else self.ctx.vars.index(name)
        R = self.ctx.ring
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            v = R.scale_int(c, e[i])
            if not R.is_zero(v):
                out[tuple(ne)] = v
        return Series(self.ctx, out)

    def integrate(self) -> "Series":
        """Univariate antiderivative with zero constant term (needs exact
        division by integers in the coefficient ring)."""
        self._univar()
        R = self.ctx.ring
        ctx = self.ctx.at_prec(self.ctx.prec + 1)
        out = {}
        for (k,), c in self.terms.items():
            q = R.divide(c, R.from_int(k + 1))
            if q is None:
                raise NotInvertible(f"cannot divide by {k + 1} in {R!r}")
            if not R.is_zero(q):
                out[(k + 1,)] = q
        return Series(ctx, out)

    def reverse(self) -> "Series":
        """Compositional inverse g with f(g(x)) = x, for f(0)=0, f'(0) a unit:
        x composed with f^-1, by compose_reverse."""
        return self.ctx.gen(self.ctx.vars[0]).compose_reverse(self)

    def compose_reverse(self, f: "Series") -> "Series":
        """h(f^-1) for this univariate h and a univariate f with f(0) = 0 and
        f'(0) a unit, in f's variable at precision min(h.prec, f.prec): what
        h.compose({v: f.reverse()}) gives, with no reversion and no
        composition.  g = h(f^-1) is the series with g(f) = h, so
        h_n = sum_(k <= n) g_k [f^k]_n and [f^n]_n = f1^n, solved one degree
        at a time; see the precision contract in the module docstring."""
        self._univar()
        f._univar()
        R = f.ctx.ring
        if not R.is_zero(f.constant_term()):
            raise NotInvertible("reversion needs zero constant term")
        f1 = f.ucoeff(1)
        if not R.is_unit(f1):
            raise NotInvertible("linear coefficient is not a unit")
        P = min(self.ctx.prec, f.ctx.prec)
        f = f.truncate(P)
        # [f^k]_n is read only for 1 <= k < n < P: the powers up to f^(P-2)
        cols, p = [{}], f
        for k in range(1, P - 1):
            if k > 1:
                p = p * f
            cols.append({n: c for (n,), c in p.terms.items()})
        inv1 = R.inv(f1)
        scale = R.one()
        g = {}
        for n in range(P):
            v = self.terms.get((n,), R.zero())
            ks = [k for k in g if n in cols[k]]
            if ks:
                v = R.sub(v, R.dot([g[k] for k in ks], [cols[k][n] for k in ks]))
            if n:
                scale = R.mul(scale, inv1)
                v = R.mul(v, scale)
            if not R.is_zero(v):
                g[n] = v
        return Series(f.ctx, {(n,): c for n, c in g.items()})


# -- composition -----------------------------------------------------------------

class _Powers:
    """The powers of one substitution s, each made once as s^(k-1) * s.  When
    s uses at most one variable of a multivariate target, its powers are
    univariate series, which pack, and are embedded into the target only
    when asked for."""

    __slots__ = ("tctx", "axis", "own", "embedded")

    def __init__(self, s: Series, tctx: SeriesCtx):
        self.tctx = tctx
        self.axis = None
        used = {i for e in s.terms for i, k in enumerate(e) if k}
        if len(tctx.vars) > 1 and len(used) <= 1:
            self.axis = i = min(used, default=0)
            uctx = SeriesCtx(tctx.ring, (tctx.vars[i],), tctx.prec)
            s = Series(uctx, {(e[i],): c for e, c in s.terms.items()})
        else:
            s = Series(tctx, s.terms)
        self.own = [s.ctx.one(), s]
        self.embedded = {}

    def power(self, k: int) -> Series:
        """s^k in its own context."""
        own = self.own
        while len(own) <= k:
            own.append(own[-1] * own[1])
        return own[k]

    def __getitem__(self, k: int) -> Series:
        """s^k in the target context."""
        if self.axis is None:
            return self.power(k)
        if k not in self.embedded:
            self.embedded[k] = self.embed(self.power(k).terms, self.tctx.prec)
        return self.embedded[k]

    def embed(self, terms: dict, prec: int) -> Series:
        """Terms of s's own context as a series of the target context at prec."""
        ctx = self.tctx.at_prec(prec)
        if self.axis is None:
            return Series(ctx, terms)
        n, i = len(ctx.vars), self.axis
        return Series(ctx, {(0,) * i + e + (0,) * (n - i - 1): c for e, c in terms.items()})

    def combination(self, coeffs: dict, top: int, prec: int) -> Series:
        """The sum of c * s^k over coeffs {k: c}, in the target context at
        prec, without its terms of total degree >= top: scales and sums only."""
        R = self.tctx.ring
        acc = {}
        for k, c in coeffs.items():
            for e, v in self.power(k).terms.items():
                if sum(e) < top:
                    p = R.mul(c, v) if k else c
                    acc[e] = R.add(acc[e], p) if e in acc else p
        return self.embed({e: v for e, v in acc.items() if not R.is_zero(v)}, prec)


def _horner(s: Series, rows: dict, value) -> Series:
    """The sum of s^i * value(i, P - i) over the rows i, for P = s.prec, by
    Horner's rule h <- value(i, P - i) + s*h from the top row down: step i
    runs at precision P - i, and a row missing from rows adds nothing.  This
    is exact because s has order >= 1 and h is later multiplied by s^i."""
    P = s.ctx.prec
    top = max(rows)
    h = value(top, P - top)
    for i in range(top - 1, -1, -1):
        h = Series(s.ctx.at_prec(P - i), h.terms) * s
        if i in rows:
            h = h + value(i, P - i)
    return h


def _grouped(terms: dict, pows: list, prec: int) -> Series:
    """The sum of c * prod s_k^e_k over terms {e: c} of total degree < prec,
    at precision prec, where pows holds the _Powers of the s_k: each group of
    terms that share all exponents but the last is a scalar combination of
    the powers of the last substitution, multiplied once by the head's powers."""
    groups = {}
    for e, c in terms.items():
        groups.setdefault(e[:-1], {})[e[-1]] = c
    out = pows[-1].tctx.at_prec(prec).zero()
    for head, tail in groups.items():
        term = pows[-1].combination(tail, prec - sum(head), prec)
        for k, p in zip(head, pows):
            if k:
                term = term * p[k]
        out = out + term
    return out


# -- multiplication ------------------------------------------------------------
# The products are private module functions, so a tracer that wraps public
# names counts their time as Series.__mul__ (or Series.scale).

_INT_ONE = (Integers, ModularIntegers, PrimeField)     # scalars whose one is the int 1


def _is_one(R: Ring, c) -> bool:
    """Whether c is exactly the one of R on a carrier where 1*v is v: the int
    1 over Z, Z/m and F_p, the series 1 at R's own context over one level of
    [[t]] over those."""
    t = type(R)
    if t in _INT_ONE:
        return c == 1
    return (t is SeriesRing and type(R.base) in _INT_ONE and _at(c.ctx, R.ctx)
            and c.terms == {(0,): 1})


def _mul_term(ctx: SeriesCtx, e: tuple, c, s: Series, left: bool) -> Series:
    """s times the one-term factor c*x^e in ctx, c the left factor when left:
    each term of s below total degree ctx.prec - |e| moves by e and is
    multiplied by c as R.mul does, a product that vanishes dropped, or only
    moves when c is the ring's one and, over [[t]], every coefficient of s
    sits at the ring's own context."""
    R = ctx.ring
    top = ctx.prec - sum(e)
    shift = _is_one(R, c) and (type(R) is not SeriesRing
                               or all(_at(v.ctx, R.ctx) for v in s.terms.values()))
    out = {}
    for f, v in s.terms.items():
        if sum(f) < top:
            if not shift:
                v = R.mul(c, v) if left else R.mul(v, c)
                if R.is_zero(v):
                    continue
            out[tuple(map(operator.add, e, f))] = v
    return Series(ctx, out)


def _at(cc: SeriesCtx, inner: SeriesCtx) -> bool:
    """Whether a coefficient's context cc is the coefficient ring's own."""
    return cc is inner or (cc.prec == inner.prec and cc.vars == inner.vars
                           and cc.ring is inner.ring)


def _mul_dict(a: Series, b: Series) -> Series:
    """a*b by the term-by-term loop; a and b share one precision and have two
    or more terms each.

    The general product: any number of variables, any coefficient ring.  The
    term pairs are grouped by their output exponent, and each group is one
    R.dot, so a ring that sums products on integers normalises once per
    coefficient."""
    R = a.ctx.ring
    prec = a.ctx.prec
    groups = {}
    bitems = sorted(b.terms.items(), key=lambda kv: sum(kv[0]))
    for e1, c1 in a.terms.items():
        d1 = sum(e1)
        for e2, c2 in bitems:
            if d1 + sum(e2) >= prec:
                break
            e = tuple(map(operator.add, e1, e2))
            if e in groups:
                xs, ys = groups[e]
                xs.append(c1)
                ys.append(c2)
            else:
                groups[e] = [c1], [c2]
    out = {}
    for e, (xs, ys) in groups.items():
        v = R.dot(xs, ys)
        if not R.is_zero(v):
            out[e] = v
    return Series(a.ctx, out)


def _integers(vals: list, m: int):
    """vals as the integers to pack, their common denominator and whether
    they were Fractions.  None when ints and Fractions mix: the loop would
    give some product coefficients as int and some as Fraction."""
    kinds = set(map(type, vals))
    if kinds == {int}:
        return ([v % m for v in vals] if m else vals), 1, False
    if kinds == {Fraction} and not m:
        den = math.lcm(*[v.denominator for v in vals])
        return [v.numerator * (den // v.denominator) for v in vals], den, True
    return None


def _operand(s: Series, inner, P: int, low: int, top: int):
    """(blocks, slots, scalars) of the terms of s of total degree < top, for
    packing: blocks lists (block index, entry count) in the order of the flat
    slots and scalars.  Exponent e has index (|e| - low)*P^(n-1) + sum of
    e_k*P^(n-k) over k >= 2, so a series of order low starts at index 0.
    Over scalars (inner None) the series is one block, e at slot index(e).
    Otherwise e is block index(e): a SeriesRing coefficient (inner its
    elements' context) puts b^j at slot j, a QuotientExtension coefficient
    (inner tuple) its coordinate j at slot j.  None when any SeriesRing
    coefficient of s, kept or not, is not at that context."""
    blocks, slots, vals = [], [], []
    for e, c in s.terms.items():
        if inner is not None and inner is not tuple and not _at(c.ctx, inner):
            return None
        i = sum(e)
        if i >= top:
            continue
        i -= low
        for k in e[1:]:
            i = i * P + k
        if inner is None:
            slots.append(i)
            vals.append(c)
            continue
        if inner is tuple:
            blocks.append((i, len(c)))
            slots += range(len(c))
            vals += c
            continue
        blocks.append((i, len(c.terms)))
        slots += [j for (j,) in c.terms]
        vals += c.terms.values()
    if inner is None:
        blocks.append((0, len(vals)))
    return blocks, slots, vals


def _pack(blocks: list, slots: list, ints: list, w: int, stride: int) -> int:
    """Sum of ints[k] * 2^(w * (i*stride + slots[k])) over the entries k of
    each block i: inner sums first, so no shift is longer than needed."""
    x = start = 0
    for i, n in blocks:
        y = 0
        for k in range(start, start + n):
            y += ints[k] << (w * slots[k])
        start += n
        x += y << (w * stride * i)
    return x


def _exponents(n: int, P: int, low: int, nblocks: int):
    """(block index - low*P^(n-1), exponent) for every exponent of n
    variables and total degree in [low, P) whose shifted block index is below
    nblocks."""
    tails = [((), 0, 0)]            # (e_2..e_n, their part of the index, sum)
    for _ in range(n - 1):
        tails = [(t + (k,), i * P + k, s + k) for t, i, s in tails for k in range(P - s)]
    base = P ** (n - 1)
    for d in range(low, min(P, low - (-nblocks // base))):
        for t, i, s in tails:
            if s <= d and (d - low) * base + i < nblocks:
                yield (d - low) * base + i, (d - s,) + t


def _mul_packed(a: Series, b: Series):
    """a*b by one big-integer product (Kronecker substitution), or None when
    the carrier is not packed or the operands are too sparse for it; a and b
    share one precision and have two or more terms each."""
    ctx = a.ctx
    R = ctx.ring
    m = _scalar_modulus(R)
    if m is not None:
        inner, stride, width = None, 1, 1
    elif type(R) is SeriesRing:
        m = _scalar_modulus(R.base)
        inner, stride, width = R.ctx, 2 * R.prec - 1, R.prec
    elif type(R) is QuotientExtension:
        if R._ints is None:
            return None
        m, mod, zero_frac = R._ints
        inner = tuple
        stride = width = 2 * R.deg - 1
    if m is None:
        return None
    P, n = ctx.prec, len(ctx.vars)
    # a term of a of degree >= P - ob meets only degrees >= P in the product,
    # and the product has no term below degree oa + ob
    oa, ob = a.order() or 0, b.order() or 0
    op_a, op_b = _operand(a, inner, P, oa, P - ob), _operand(b, inner, P, ob, P - oa)
    if op_a is None or op_b is None:
        return None
    (blocks_a, slots_a, vals_a), (blocks_b, slots_b, vals_b) = op_a, op_b
    # a zero operand, or oa + ob >= P: no term is kept
    if not vals_a or not vals_b:
        return Series(ctx, {})
    # the product spans the slots from block (oa + ob)*P^(n-1) up to the last
    # one that holds a term of total degree < P; packing pays when the loop's
    # scalar products cover them
    low = oa + ob
    top = (max(blocks_a)[0] + max(blocks_b)[0]) * stride + max(slots_a) + max(slots_b)
    nslots = min((P ** n - low * P ** (n - 1) - 1) * stride + width, top + 1)
    if len(vals_a) * len(vals_b) < nslots:
        return None
    int_a, int_b = _integers(vals_a, m), _integers(vals_b, m)
    if int_a is None or int_b is None:
        return None
    (ints_a, den_a, frac_a), (ints_b, den_b, frac_b) = int_a, int_b
    frac = frac_a or frac_b
    if inner is tuple:
        # the loop adds into the base ring's zero: a Fraction zero makes every
        # coordinate a Fraction, and an int zero beside Fractions mixes types
        if frac and not zero_frac:
            return None
        frac = zero_frac
    # |slot| <= pairs * max|a| * max|b| < 2^(w - 2): no carry into the next
    # slot, and a spare bit for the sign
    if m:
        bits = 2 * (m - 1).bit_length()
    else:
        bits = max(map(abs, ints_a)).bit_length() + max(map(abs, ints_b)).bit_length()
    size = (bits + min(len(ints_a), len(ints_b)).bit_length() + 2 + 7) // 8
    w = 8 * size
    prod = _pack(blocks_a, slots_a, ints_a, w, stride) * _pack(blocks_b, slots_b, ints_b, w, stride)
    # signed slots: 2^(w-1) added to each makes every slot read as unsigned
    half = 0 if m else 1 << (w - 1)
    if half:
        prod += int.from_bytes((bytes(size - 1) + b"\x80") * nslots, "little")
    data = (prod & ((1 << (w * nslots)) - 1)).to_bytes(size * nslots, "little")
    # a SeriesRing block spans b-degrees 0 to 2Pb - 2 and keeps the first
    # width = Pb, so only those are read
    if width == stride:
        slots = range(0, size * nslots, size)
    else:
        end = size * nslots
        slots = [k for i in range(0, end, size * stride)
                 for k in range(i, min(i + size * width, end), size)]
    if m:
        digits = [int.from_bytes(data[k:k + size], "little") % m for k in slots]
    else:
        digits = [int.from_bytes(data[k:k + size], "little") - half for k in slots]
    den = den_a * den_b
    out = {}
    for i, e in _exponents(n, P, low, -(-nslots // stride)):
        if inner is None:
            v = digits[i]
            if v:
                out[e] = Fraction(v, den) if frac else v
        elif inner is tuple:
            c = _reduce(digits[i * stride:(i + 1) * stride], mod, m)
            if any(c):
                out[e] = tuple(Fraction(v, den) for v in c) if frac else tuple(c)
        else:
            terms = {(j,): Fraction(v, den) if frac else v
                     for j, v in enumerate(digits[i * width:(i + 1) * width]) if v}
            if terms:
                out[e] = Series(inner, terms)
    return Series(ctx, out)


# -- Weierstrass preparation -------------------------------------------------

def weierstrass_prepare(f: Series):
    """The distinguished factor of f = unit * distinguished over a local ring
    whose maximal ideal is nilpotent at working precision (e.g. Z/2^k or
    Z/2^k[[b]] truncated).

    Returns (distinguished coefficient list low-first, degree d).  The
    distinguished polynomial is monic of degree d = index of the first unit
    coefficient of f; its lower coefficients lie in the maximal ideal.  The
    unit is not returned: its coefficients near f's precision depend on
    terms of f above that precision, which f does not carry.
    """
    f._univar()
    R = f.ctx.ring
    prec = f.ctx.prec
    d = None
    for k in range(prec):
        if R.is_unit(f.ucoeff(k)):
            d = k
            break
    if d is None:
        raise PreparationFailed("no unit coefficient below truncation order")
    ctx = f.ctx
    # f = A + x^d * B with A of degree < d (coefficients in the maximal ideal)
    A = Series(ctx, {e: c for e, c in f.terms.items() if e[0] < d})
    B = Series(ctx, {(e[0] - d,): c for e, c in f.terms.items() if e[0] >= d})
    Binv = B.inverse()

    def tau(h: Series) -> Series:
        return Series(ctx, {(e[0] - d,): c for e, c in h.terms.items() if e[0] >= d})

    g = Series(ctx, {(d,): R.one()})  # divide x^d by f
    bound = R.nilpotent_bound()
    iters = (bound + 2) if bound is not None else prec + 4
    q = ctx.zero()
    for _ in range(iters):
        q_next = Binv * tau(g - q * A)
        if q_next == q:
            break
        q = q_next
    else:
        raise PreparationFailed("preparation iteration did not stabilize")
    r = g - q * f  # degree < d remainder
    if any(e[0] >= d for e in r.terms):
        raise PreparationFailed("division remainder not reduced")
    dist = [R.neg(r.ucoeff(k)) for k in range(d)] + [R.one()]
    return dist, d


class SeriesRing(Ring):
    """Univariate truncated power series R[[t]]/(t^prec) as a coefficient Ring."""

    def __init__(self, base: Ring, var: str, prec: int):
        self.base = base
        self.var = var
        self.ctx = SeriesCtx(base, (var,), prec)
        self.prec = prec
        self.char = base.char

    def zero(self):
        return self.ctx.zero()

    def one(self):
        return self.ctx.one()

    def from_int(self, n):
        return self.ctx.from_int(n)

    def const(self, c):
        return self.ctx.const(c)

    def gen(self):
        return self.ctx.gen(self.var)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def scale_int(self, a, n: int):
        return a.scale(self.base.from_int(n))

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return a.is_zero()

    def is_unit(self, a):
        return self.base.is_unit(a.constant_term())

    def inv(self, a):
        return a.inverse()

    def divide(self, a, b):
        if b.terms.keys() <= {(0,)}:
            # a base scalar, zero included: coefficient by coefficient
            out = _divide_each(self.base, a.terms, b.constant_term())
            return None if out is None else Series(self.ctx, out)
        if self.is_unit(b):
            return a * b.inverse()
        ob = b.order()
        if ob:
            if not a.is_zero() and a.order() < ob:
                return None
            # q*b = a fixes q only below prec - ob
            raise TruncationError(f"a quotient by an element of {self.var}-order {ob} "
                                  f"is known only below {self.prec - ob}, not {self.prec}")
        base = self.base
        m = _scalar_modulus(base)
        if m == 0:
            # over Z, Z_(p) or Z[1/p] the quotient is the one over Q, if any:
            # q_k = (a_k - sum_(i < k) b_(k - i) q_i) / b_0, each in the base
            bs = [b.terms.get((k,), base.zero()) for k in range(self.prec)]
            q = []
            for k in range(self.prec):
                rest = base.sub(a.terms.get((k,), base.zero()), base.dot(bs[k:0:-1], q))
                qk = base.divide(rest, bs[0])
                if qk is None:
                    return None
                q.append(qk)
            return Series(self.ctx, {(k,): v for k, v in enumerate(q) if not base.is_zero(v)})
        if not isinstance(base, ModularIntegers):
            return None
        # over Z/m, q*b = a is the lower-triangular Toeplitz system
        # sum_(i <= k) b_(k - i) q_i = a_k, k < prec, solved over Z with the
        # column m*e_k beside each row k, so the solve is complete
        P = self.prec
        bs = [b.terms.get((k,), 0) for k in range(P)]
        columns = [[0] * i + bs[:P - i] for i in range(P)]
        columns += [[m if k == r else 0 for k in range(P)] for r in range(P)]
        x = solve_int_exact(columns, [a.terms.get((k,), 0) for k in range(P)])
        if x is None:
            return None
        return Series(self.ctx, {(i,): v % m for i, v in enumerate(x[:P]) if v % m})

    def rationalize(self):
        rbase, f = self.base.rationalize()
        target = SeriesRing(rbase, self.var, self.prec)
        return target, lambda s: s.map_coefficients(f, rbase)

    def nilpotent_bound(self):
        b = self.base.nilpotent_bound()
        if b is None:
            return None
        return b + self.prec

    def render(self, a):
        if a.is_zero():
            return "0"
        parts = []
        for (k,) in sorted(a.terms):
            c = self.base.render(a.terms[(k,)])
            if k == 0:
                parts.append(c)
            else:
                head = self.var if k == 1 else f"{self.var}^{k}"
                parts.append(head if c == "1" else f"({c})*{head}")
        return " + ".join(parts) + f" + O({self.var}^{self.prec})"

    def structure(self):
        return (type(self), self.base.structure(), self.var, self.prec)

    def __repr__(self):
        return f"{self.base!r}[[{self.var}]]<{self.prec}>"

