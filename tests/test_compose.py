"""Differential and operation-count tests for the grouped composition: Series.compose
against the term-by-term compose_oracle over Z, Q, Z/8, Z/8[[b]], Q[[b]] and
omega_ring(), with one, two and three outer variables and substitutions that
use several variables, one variable, or are a bare generator."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chromalg import series as series_module
from chromalg.errors import CompositionError
from chromalg.rings import QQ, ZZ, ModularIntegers, omega_ring
from chromalg.series import Series, SeriesCtx, SeriesRing

from oracles import compose_oracle

SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def exact(v):
    """Variables, precision, terms and scalar types, recursively."""
    if isinstance(v, Series):
        return (v.ctx.vars, v.ctx.prec, {e: exact(c) for e, c in v.terms.items()})
    if isinstance(v, tuple):
        return tuple(exact(c) for c in v)
    return (type(v), v)


# -- carriers: ring and element strategy ----------------------------------------

_fraction = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
_Z8 = ModularIntegers(8)


def _series_ring(base, elem):
    SR = SeriesRing(base, "b", 3)
    return SR, st.lists(elem, min_size=3, max_size=3).map(
        lambda cs: SR.ctx.series({(i,): c for i, c in enumerate(cs)}))


def _omega():
    W = omega_ring()
    coord = st.builds(lambda n, j: Fraction(n, 3 ** j), st.integers(-4, 4), st.integers(0, 1))
    return W, st.one_of(st.tuples(coord, coord),
                        st.tuples(st.integers(-4, 4), st.integers(-4, 4)))


CARRIERS = {
    "Z": (ZZ, st.integers(-9, 9)),
    "Q": (QQ, _fraction),
    "Z/8": (_Z8, st.integers(0, 7)),
    "Z/8[[b]]": _series_ring(_Z8, st.integers(0, 7)),
    "Q[[b]]": _series_ring(QQ, _fraction),
    "omega": _omega(),
}

OUTER = ("a", "b", "c")
TARGET = ("x", "y", "z")


def _exponents(n, prec, low):
    if n == 0:
        yield ()
        return
    for k in range(prec):
        for rest in _exponents(n - 1, prec - k, 0):
            if k + sum(rest) >= low:
                yield (k,) + rest


def _draw_series(data, ctx, elem, low, axes=None):
    """A series in ctx with no term below total degree low, using only the
    variables at the indices in axes (all when None)."""
    terms = {}
    for e in _exponents(len(ctx.vars), ctx.prec, low):
        if axes is not None and any(k for i, k in enumerate(e) if i not in axes):
            continue
        if data.draw(st.booleans()):
            terms[e] = data.draw(elem)
    return ctx.series(terms)


def _draw_substitution(data, tctx, elem):
    kind = data.draw(st.sampled_from(["several", "one", "generator"]))
    n = len(tctx.vars)
    if kind == "generator":
        return tctx.gen(data.draw(st.sampled_from(tctx.vars)))
    axes = {data.draw(st.integers(0, n - 1))} if kind == "one" else None
    return _draw_series(data, tctx, elem, 1, axes)


@pytest.mark.parametrize("carrier", sorted(CARRIERS))
@pytest.mark.parametrize("n_outer", [1, 2, 3])
@SETTINGS
@given(data=st.data())
def test_compose_matches_term_by_term_oracle(carrier, n_outer, data):
    """Outer terms of total degree >= prec occur whenever the outer series is
    known further than the substitutions."""
    R, elem = CARRIERS[carrier]
    n_target = data.draw(st.integers(1, 3))
    prec = data.draw(st.integers(1, 6 if n_outer * n_target < 4 else 4))
    tctx = SeriesCtx(R, TARGET[:n_target], prec)
    f_ctx = SeriesCtx(R, OUTER[:n_outer], prec + data.draw(st.integers(0, 2)))
    f = _draw_series(data, f_ctx, elem, 0)
    subs = {v: _draw_substitution(data, tctx, elem) for v in f_ctx.vars}
    assert exact(f.compose(subs)) == exact(compose_oracle(f, subs))


@pytest.mark.parametrize("carrier", sorted(CARRIERS))
@SETTINGS
@given(data=st.data())
def test_nonzero_constant_term_is_a_composition_error(carrier, data):
    R, elem = CARRIERS[carrier]
    tctx = SeriesCtx(R, ("x", "y"), 4)
    f = _draw_series(data, SeriesCtx(R, ("a", "b"), 4), elem, 0)
    bad = tctx.const(data.draw(elem.filter(lambda c: not R.is_zero(c))))
    subs = {"a": tctx.gen("x"), "b": bad + _draw_series(data, tctx, elem, 1)}
    with pytest.raises(CompositionError):
        f.compose(subs)
    with pytest.raises(CompositionError):
        compose_oracle(f, subs)


# -- deterministic operation counts --------------------------------------------

def _dense(ctx, low, axes=None):
    """Every term of total degree >= low, over the given axes, coefficient 1
    plus the degree: dense, so no product is sparse by accident."""
    R = ctx.ring
    return ctx.series({e: R.from_int(1 + sum(e))
                       for e in _exponents(len(ctx.vars), ctx.prec, low)
                       if axes is None or not any(k for i, k in enumerate(e) if i not in axes)})


def _watch(monkeypatch, ring):
    """Log the products: in "products", (variables, precision) of each
    Series.__mul__ call over ring whose two operands both have two or more
    terms at their common precision (a one-term factor is a shift and a
    scale, not a product); in "kernel", the fewer terms of the two operands
    of each _mul_packed and _mul_dict call, over any ring."""
    log = {"products": [], "kernel": []}
    real = Series.__mul__

    def counted(a, b):
        p = min(a.ctx.prec, b.ctx.prec)
        if a.ctx.ring is ring and min(sum(sum(e) < p for e in s.terms) for s in (a, b)) >= 2:
            log["products"].append((a.ctx.vars, p))
        return real(a, b)

    def kernel(real):
        def fn(a, b):
            log["kernel"].append(min(len(a.terms), len(b.terms)))
            return real(a, b)
        return fn

    monkeypatch.setattr(Series, "__mul__", counted)
    for name in ("_mul_packed", "_mul_dict"):
        monkeypatch.setattr(series_module, name, kernel(getattr(series_module, name)))
    return log


@pytest.mark.parametrize("ring", [QQ, _Z8, omega_ring(), SeriesRing(_Z8, "b", 3)],
                         ids=["Q", "Z/8", "omega", "Z/8[[b]]"])
def test_compose_makes_no_product_with_a_one_term_operand(monkeypatch, ring):
    """Bare generators, scaled monomials, one-variable and several-variable
    substitutions, under one, two and three outer variables: a one-term
    power, group, s1 or h is a shift and a scale of the other factor, so no
    packed or loop product, of the series or of their Z/8[[b]] coefficients,
    gets a one-term operand."""
    tctx = SeriesCtx(ring, ("x", "y", "z"), 6)
    x, y, z = (tctx.gen(v) for v in tctx.vars)
    one_var = _dense(tctx, 1, {1})
    several = _dense(tctx, 1)
    cases = [({"a": x}, 1), ({"a": one_var}, 1), ({"a": several}, 1),
             ({"a": x, "b": y}, 2), ({"a": x.scale(ring.from_int(3)), "b": one_var}, 2),
             ({"a": several, "b": z}, 2), ({"a": one_var, "b": several}, 2),
             ({"a": x, "b": y, "c": z}, 3), ({"a": several, "b": one_var, "c": y}, 3)]
    log = _watch(monkeypatch, ring)
    done = []
    for subs, n in cases:
        f = _dense(SeriesCtx(ring, OUTER[:n], 6), 0)
        log["kernel"].clear()
        done.append((f, subs, f.compose(subs)))
        assert min(log["kernel"], default=2) >= 2, subs
    assert log["products"]
    monkeypatch.undo()
    for f, subs, out in done:
        assert exact(out) == exact(compose_oracle(f, subs))


def test_univariate_composition_makes_one_product_per_power(monkeypatch):
    """f(g) for f with P terms by Horner's rule: step i runs at precision
    P - i, so the products are at precisions 3 .. P (the step at precision 2
    has a one-term g, a scale), and no product makes a power of g."""
    P = 12
    ctx = SeriesCtx(QQ, ("x",), P)
    f, g = _dense(ctx, 0), _dense(ctx, 1)
    log = _watch(monkeypatch, QQ)
    f.compose({"x": g})
    assert [p for _, p in log["products"]] == list(range(3, P + 1))
    assert min(log["kernel"]) >= 2


def test_bivariate_composition_makes_no_power_of_the_first_substitution(monkeypatch):
    """F(phi(x), psi(y)) for a dense F at P = 8: the P - 2 powers of psi(y),
    made univariately at P, and one Horner step in x per precision 3 .. P.
    No product has two x-only operands, so no power of phi(x) is made (the
    grouped schedule made 18 products, 6 of them powers of phi(x))."""
    P = 8
    tctx = SeriesCtx(QQ, ("x", "y"), P)
    f = _dense(SeriesCtx(QQ, ("a", "b"), P), 0)
    subs = {"a": _dense(tctx, 1, {0}), "b": _dense(tctx, 1, {1})}
    log = _watch(monkeypatch, QQ)
    out = f.compose(subs)
    monkeypatch.undo()
    assert sorted(log["products"]) == ([(("x", "y"), p) for p in range(3, P + 1)]
                                       + [(("y",), P)] * (P - 2))
    assert min(log["kernel"]) >= 2
    assert exact(out) == exact(compose_oracle(f, subs))


# -- deterministic differential cases --------------------------------------------

def _edge_cases():
    """(f, subs) pairs that the random draws rarely reach."""
    tctx = SeriesCtx(QQ, ("x", "y"), 6)
    g = _dense(SeriesCtx(QQ, ("x",), 6), 1)
    ctx8 = SeriesCtx(_Z8, ("x",), 7)
    t3 = SeriesCtx(ZZ, ("x", "y", "z"), 5)
    W = omega_ring()
    wctx = SeriesCtx(W, ("x",), 6)
    w = wctx.series({(1,): (1, 0), (2,): (Fraction(1, 3), 2), (4,): (0, Fraction(-2, 3))})
    return {
        # every term of f at or above the precision of the substitution
        "all-terms-above-prec": (SeriesCtx(QQ, ("a",), 9).series(
            {(k,): Fraction(k, 2) for k in range(6, 9)}), {"a": g}),
        # one term, at degree P - 1
        "one-term-at-P-1": (SeriesCtx(QQ, ("a",), 6).series({(5,): Fraction(7, 3)}),
                            {"a": g}),
        # zero c_i between nonzero ones, and a nonzero constant term
        "gaps-and-constant": (SeriesCtx(_Z8, ("a",), 7).series({(0,): 3, (2,): 5, (5,): 6}),
                              {"a": _dense(ctx8, 1)}),
        "bivariate-gaps-and-constant": (
            SeriesCtx(QQ, ("a", "b"), 6).series({(0, 0): Fraction(1, 2), (0, 3): 1,
                                                 (3, 0): Fraction(-4, 5), (3, 2): 2}),
            {"a": _dense(tctx, 1), "b": _dense(tctx, 1, {1})}),
        "omega-gaps-and-constant": (wctx.series({(0,): (2, 0), (3,): (0, 1), (5,): (1, 1)}),
                                    {"x": w}),
        # s1 a bare generator of a three-variable target
        "generator-of-3-var-target": (_dense(SeriesCtx(ZZ, ("a", "b", "c"), 5), 0),
                                      {"a": t3.gen("y"), "b": _dense(t3, 1),
                                       "c": _dense(t3, 1, {2})}),
        "univariate-f-at-generator-of-3-var-target": (
            _dense(SeriesCtx(ZZ, ("a",), 5), 0), {"a": t3.gen("z")}),
    }


@pytest.mark.parametrize("case", sorted(_edge_cases()))
def test_compose_edge_cases_match_oracle(case):
    f, subs = _edge_cases()[case]
    assert exact(f.compose(subs)) == exact(compose_oracle(f, subs))
