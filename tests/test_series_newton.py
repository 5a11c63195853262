"""Differential and operation-count tests for the series algorithms with a
precision contract: the Newton inverse, reversion as a triangular solve
(reverse and compose_reverse), the Newton w-series and find_iso with its
tables of phi, each against its full-precision oracle."""

import dataclasses
from fractions import Fraction
from math import ceil, log2

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chromalg import elliptic, fgl
from chromalg import series as series_module
from chromalg.elliptic import curve, curve_w_series
from chromalg.errors import AlgebraError, NotInvertible, TruncationError
from chromalg.poly import Poly, PolyRing
from chromalg.rings import GF, QQ, ZZ, ModularIntegers, Z_inverted, omega_ring, sqrt_minus3
from chromalg.series import Series, SeriesCtx, SeriesRing

from oracles import (curve_w_series_oracle, find_iso_oracle, inverse_oracle,
                     omega_unit_candidates_oracle,
                     reverse_newton_oracle, reverse_oracle)

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def exact(v):
    """Precision, terms and scalar types, recursively, for exact comparison:
    Series.__eq__ would compare at the smaller precision, and == takes
    Fraction(2) for 2."""
    if isinstance(v, Series):
        return (v.ctx.prec, {e: exact(c) for e, c in v.terms.items()})
    if isinstance(v, Poly):
        return {e: exact(c) for e, c in v.terms.items()}
    if isinstance(v, tuple):
        return tuple(exact(c) for c in v)
    return (type(v), v)


# -- carriers: (ring, element strategy, unit strategy) ------------------------

def _rationals():
    elem = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    return QQ, elem, elem.filter(lambda a: a != 0)


def _mod_2k(k):
    R = ModularIntegers(2 ** k)
    return R, st.integers(0, R.m - 1), st.integers(0, R.m // 2 - 1).map(lambda a: 2 * a + 1)


def _series_over(carrier, bprec):
    base, belem, bunit = carrier
    SR = SeriesRing(base, "b", bprec)

    def series(first):
        rest = st.lists(belem, min_size=bprec - 1, max_size=bprec - 1)
        return st.tuples(first, rest).map(
            lambda cs: SR.ctx.series({(i,): c for i, c in enumerate([cs[0]] + cs[1])}))

    return SR, series(belem), series(bunit)


def _omega():
    W = omega_ring()
    coord = st.builds(lambda n, j: Fraction(n, 3 ** j), st.integers(-6, 6), st.integers(0, 1))
    return W, st.tuples(coord, coord), st.sampled_from(omega_unit_candidates_oracle(W, 1))


CARRIERS = {
    "QQ": _rationals(),
    "Z/2": _mod_2k(1),
    "Z/32": _mod_2k(5),
    "Z/8[[b]]<3>": _series_over(_mod_2k(3), 3),
    "Z/4[[b]]<5>": _series_over(_mod_2k(2), 5),
    "omega": _omega(),
}


def _polys_zab():
    R = PolyRing(ZZ, ("A", "B"))
    monos = st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)])
    elem = st.dictionaries(monos, st.integers(-3, 3), max_size=3).map(R.poly)
    return R, elem, st.sampled_from([R.one(), R.from_int(-1)])


# reversion also runs over Q[[b]] (the quotient's lift) and Z[A, B] (strict
# twists of the universal law)
REVERSE_CARRIERS = {**CARRIERS, "Q[[b]]<4>": _series_over(_rationals(), 4),
                    "Z[A,B]": _polys_zab()}


def _draw_series(data, ctx, elems, units, unit_at):
    """Series in ctx with a unit coefficient in degree unit_at and zero below."""
    terms = {}
    for k in range(unit_at, ctx.prec):
        c = data.draw(units if k == unit_at else elems)
        if not ctx.ring.is_zero(c):
            terms[(k,)] = c
    return ctx.series(terms)


@pytest.mark.parametrize("carrier", sorted(CARRIERS))
@SETTINGS
@given(data=st.data(), prec=st.integers(1, 10))
def test_inverse_matches_full_precision_oracle(carrier, data, prec):
    R, elem, unit = CARRIERS[carrier]
    f = _draw_series(data, SeriesCtx(R, ("x",), prec), elem, unit, 0)
    assert exact(f.inverse()) == exact(inverse_oracle(f))


@SETTINGS
@given(data=st.data(), prec=st.integers(1, 8))
def test_bivariate_inverse_matches_oracle(data, prec):
    R, elem, unit = CARRIERS["QQ"]
    ctx = SeriesCtx(R, ("x", "y"), prec)
    terms = {(0, 0): data.draw(unit)}
    for i in range(prec):
        for j in range(prec - i):
            if (i, j) != (0, 0):
                terms[(i, j)] = data.draw(elem)
    f = ctx.series(terms)
    assert exact(f.inverse()) == exact(inverse_oracle(f))


def _outcome(fn, *args):
    """exact(fn(*args)), or the NotInvertible refusal and its message."""
    try:
        return exact(fn(*args))
    except NotInvertible as e:
        return "NotInvertible", str(e)


@pytest.mark.parametrize("carrier", sorted(REVERSE_CARRIERS))
@SETTINGS
@given(data=st.data(), prec=st.integers(1, 10))
def test_reverse_matches_degree_by_degree_oracle(carrier, data, prec):
    """The triangular solve gives the terms and types of the degree-by-degree
    oracle and of Newton reversion, and f(g) = x; at prec 1 all three
    refuse, since the linear coefficient is not known."""
    R, elem, unit = REVERSE_CARRIERS[carrier]
    f = _draw_series(data, SeriesCtx(R, ("x",), prec), elem, unit, 1)
    got = _outcome(Series.reverse, f)
    assert got == _outcome(reverse_oracle, f)
    assert got == _outcome(reverse_newton_oracle, f)
    if prec == 1:
        assert got == ("NotInvertible", "linear coefficient is not a unit")
    else:
        x = SeriesCtx(R, ("x",), prec).gen("x")
        assert exact(f.compose({"x": f.reverse()})) == exact(x)


@pytest.mark.parametrize("carrier", sorted(REVERSE_CARRIERS))
@SETTINGS
@given(data=st.data(), fprec=st.integers(1, 10), hprec=st.integers(1, 10))
def test_compose_reverse_matches_composition_with_the_oracle_reverses(carrier, data,
                                                                      fprec, hprec):
    """h(f^-1) for an h with a unit constant term, in its own variable, at
    min(h.prec, f.prec): h composed with either oracle's reverse of f."""
    R, elem, unit = REVERSE_CARRIERS[carrier]
    f = _draw_series(data, SeriesCtx(R, ("x",), fprec), elem, unit, 1)
    h = _draw_series(data, SeriesCtx(R, ("t",), hprec), elem, unit, 0)
    got = _outcome(h.compose_reverse, f)
    for oracle in (reverse_newton_oracle, reverse_oracle):
        assert got == _outcome(lambda f: h.compose({"t": oracle(f)}), f)
    if fprec > 1:
        g = h.compose_reverse(f)
        assert g.ctx.vars == ("x",) and g.prec == min(fprec, hprec)


@pytest.mark.parametrize("carrier", sorted(REVERSE_CARRIERS))
@SETTINGS
@given(data=st.data(), prec=st.integers(2, 8))
def test_reversion_refuses_what_the_oracles_refuse(carrier, data, prec):
    """A nonzero constant term, or a linear coefficient that is not a unit:
    reverse and compose_reverse raise the oracles' NotInvertible."""
    R, elem, unit = REVERSE_CARRIERS[carrier]
    ctx = SeriesCtx(R, ("x",), prec)
    h = _draw_series(data, SeriesCtx(R, ("t",), prec), elem, unit, 0)
    shifted = _draw_series(data, ctx, elem, unit, 0)
    # 2c is not a unit where 2 is not; over QQ and Q[[b]] the linear term is 0
    two = R.from_int(2)
    lame = dict(_draw_series(data, ctx, elem, unit, 1).terms)
    lame[(1,)] = R.mul(R.zero() if R.is_unit(two) else two, data.draw(elem))
    lame = ctx.series(lame)
    for f, message in ((shifted, "reversion needs zero constant term"),
                       (lame, "linear coefficient is not a unit")):
        refusal = ("NotInvertible", message)
        assert _outcome(Series.reverse, f) == refusal
        assert _outcome(h.compose_reverse, f) == refusal
        assert _outcome(reverse_newton_oracle, f) == refusal
        assert _outcome(reverse_oracle, f) == refusal


@pytest.mark.parametrize("carrier", sorted(CARRIERS))
@SETTINGS
@given(data=st.data(), prec=st.integers(1, 24))
def test_w_series_matches_full_precision_oracle(carrier, data, prec):
    R, elem, _ = CARRIERS[carrier]
    E = curve(R, *(data.draw(elem) for _ in range(5)))
    assert exact(curve_w_series(E, prec)) == exact(curve_w_series_oracle(E, prec))


@pytest.mark.parametrize("prec", [1, 3, 4, 5, 8, 9, 16, 17, 24, 33])
def test_w_series_makes_logarithmically_many_newton_steps(monkeypatch, prec):
    """From w = z^3, exact below z^4, step i runs at min(2^(i + 3), prec):
    max(0, ceil(log2(prec / 4))) steps, each with one image of w, and then
    the one verification pass."""
    steps, images = [], []
    real_step, real_image = elliptic._w_newton_step, elliptic._w_image

    def step(E, w, known):
        steps.append((known, w.prec))
        return real_step(E, w, known)

    def image(E, w, w2):
        images.append(w.prec)
        return real_image(E, w, w2)

    monkeypatch.setattr(elliptic, "_w_newton_step", step)
    monkeypatch.setattr(elliptic, "_w_image", image)
    E = curve(QQ, *(QQ.from_int(k) for k in (1, -2, 3, 1, -1)))
    w = curve_w_series(E, prec)
    n = max(0, ceil(log2(prec / 4)))
    assert [p for _, p in steps] == [min(2 ** (i + 3), prec) for i in range(n)]
    assert [k for k, _ in steps] == [min(2 ** (i + 2), prec) for i in range(n)]
    assert len(images) == n + 1 and images[-1] == prec
    assert exact(w) == exact(curve_w_series_oracle(E, prec))


def test_w_series_newton_needs_the_whole_derivative(monkeypatch):
    """Negative control: an update whose G'(w) drops the 3 a6 w^2 term
    converges only linearly, and the verification pass catches it."""
    real = elliptic._w_derivative
    monkeypatch.setattr(elliptic, "_w_derivative", lambda E, w, w2: real(
        dataclasses.replace(E, a6=E.ring.zero()), w, w2))
    E = curve(QQ, *(QQ.from_int(k) for k in (1, -2, 3, 1, -1)))
    with pytest.raises(AlgebraError):
        curve_w_series(E, 24)


def _same_iso_result(new, old):
    assert type(new) is type(old)
    if isinstance(old, fgl.IsoResult):
        assert exact(new.phi) == exact(old.phi)
        assert new.linear == old.linear
    else:
        assert (new.degree, new.details, new.proof) == (old.degree, old.details, old.proof)


@pytest.mark.parametrize("k", [0, 1, 3])
@settings(max_examples=15, deadline=None)
@given(b=st.integers(-3, 3), c=st.integers(-3, 3), b2=st.integers(-3, 3),
       c2=st.integers(-3, 3), N=st.integers(2, 6))
def test_find_iso_matches_full_precision_oracle(k, b, c, b2, c2, N):
    """Over Q (k = 0) strict isomorphisms always exist; over Z/2^k some
    searches end in an Obstruction, whose degree must agree too."""
    R = QQ if k == 0 else ModularIntegers(2 ** k)
    F = fgl.conic_fgl(R, R.from_int(b), R.from_int(c), N + 1)
    G = fgl.conic_fgl(R, R.from_int(b2), R.from_int(c2), N + 1)
    _same_iso_result(fgl.find_iso(F, G, "strict", N=N), find_iso_oracle(F, G, "strict", N=N))


def test_find_iso_omega_matches_oracle():
    W = omega_ring()
    Fc = fgl.conic_fgl(W, W.from_int(3), W.from_int(3), 9)
    Fm = fgl.conic_fgl(W, sqrt_minus3(W), W.zero(), 9)
    for F, G in ((Fc, Fm), (Fm, Fc)):
        res = fgl.find_iso(F, G, "strict", N=8)
        assert isinstance(res, fgl.IsoResult)
        _same_iso_result(res, find_iso_oracle(F, G, "strict", N=8))


def test_find_iso_obstruction_degree_on_noniso_z13_inputs():
    Z13 = Z_inverted(3)
    Fc = fgl.conic_fgl(Z13, Fraction(3), Fraction(3), 7)
    cands = Z13.unit_candidates(3)
    for u in cands:
        Fm = fgl.conic_fgl(Z13, u, Fraction(0), 7)
        new = fgl.find_iso(Fc, Fm, "linear-unit", N=6, unit_candidates=cands)
        assert isinstance(new, fgl.Obstruction)
        _same_iso_result(new, find_iso_oracle(Fc, Fm, "linear-unit", N=6,
                                              unit_candidates=cands))


def _sparse_omega():
    """x + y + sqrt(-3) xy -> conic(3, 3) over omega at N = 12: the powers
    of the three-term law fall below the density rule and take _mul_dict."""
    W = omega_ring()
    Fm = fgl.conic_fgl(W, sqrt_minus3(W), W.zero(), 13)
    return Fm, fgl.conic_fgl(W, W.from_int(3), W.from_int(3), 13), 12


def _z4b_with_zero_coefficients():
    """A conic law over Z/4[[b]] and its strict twist by t + b t^3 +
    (1 + b^2) t^5: c_2 = c_4 = 0 are the first solutions of 2 c = 0, so the
    search reads no F^2 and no F^4."""
    S = SeriesRing(ModularIntegers(4), "b", 4)
    b = S.gen()
    F = fgl.conic_fgl(S, S.one() + b, b, 8)
    phi = SeriesCtx(S, ("t",), 8).series({(1,): S.one(), (3,): b, (5,): S.one() + b * b})
    return F, fgl.strict_apply(F, phi), 7


def _z13_obstruction():
    """conic(3, 3) -> x + y + 3xy over Z[1/3]: no strict isomorphism."""
    Z13 = Z_inverted(3)
    return (fgl.conic_fgl(Z13, Fraction(3), Fraction(3), 7),
            fgl.multiplicative_fgl(Z13, Fraction(3), 7), 6)


ISO_CASES = {"omega x+y+sqrt(-3)xy": _sparse_omega,
             "Z/4[[b]] c_2 = c_4 = 0": _z4b_with_zero_coefficients,
             "Z[1/3] obstruction": _z13_obstruction}


@pytest.mark.parametrize("case", sorted(ISO_CASES))
def test_find_iso_differential_cases(monkeypatch, case):
    """find_iso against its full-precision oracle where the phi(F) side is
    read from sparse powers of F (through _mul_dict), from a candidate with
    c_d = 0, and where the search ends in an Obstruction: the same phi, or
    the same degree and fails dict."""
    F, G, N = ISO_CASES[case]()
    loops = []
    real = series_module._mul_dict

    def mul_dict(a, b):
        loops.append(a.ctx.prec)
        return real(a, b)
    monkeypatch.setattr(series_module, "_mul_dict", mul_dict)
    res = fgl.find_iso(F, G, "strict", N=N)
    monkeypatch.undo()
    _same_iso_result(res, find_iso_oracle(F, G, "strict", N=N))
    if case.startswith("omega"):
        assert isinstance(res, fgl.IsoResult) and loops
    elif case.startswith("Z/4"):
        assert isinstance(res, fgl.IsoResult)
        assert sorted(k for (k,) in res.phi.terms) == [1, 3, 5]
    else:
        assert (res.degree, res.details) == (4, {"1": 4})


def test_find_iso_makes_no_series_scale_or_sum(monkeypatch):
    """phi(F) is read from the powers of F one coefficient at a time: no
    Series.scale and no Series.__add__ in either omega direction."""
    W = omega_ring()
    Fc = fgl.conic_fgl(W, W.from_int(3), W.from_int(3), 9)
    Fm = fgl.conic_fgl(W, sqrt_minus3(W), W.zero(), 9)

    def refuse(*args):
        raise AssertionError("find_iso made a Series scale or sum")
    for name in ("scale", "__add__", "__radd__"):
        monkeypatch.setattr(Series, name, refuse)
    for F, G in ((Fc, Fm), (Fm, Fc)):
        assert isinstance(fgl.find_iso(F, G, "strict", N=8), fgl.IsoResult)


def _gf4():
    R = GF(4)
    elems = R.elements()
    return R, st.sampled_from(elems), st.sampled_from([e for e in elems if not R.is_zero(e)])


TWIST_CARRIERS = {
    "QQ": _rationals(),
    "Z/8": _mod_2k(3),
    "GF(4)": _gf4(),
    "Z/4[[b]]<3>": _series_over(_mod_2k(2), 3),
    "omega": _omega(),
}


def _draw_strict(data, R, elem, N):
    """A strict phi = t + c_2 t^2 + ... + c_N t^N with drawn c_k."""
    ctx = SeriesCtx(R, ("t",), N + 1)
    return ctx.series({(k,): R.one() if k == 1 else data.draw(elem) for k in range(1, N + 1)})


@pytest.mark.parametrize("carrier", sorted(TWIST_CARRIERS))
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), N=st.integers(2, 12))
def test_find_iso_onto_strict_twists_matches_oracle(carrier, data, N):
    """G = strict_apply(F, phi) for a conic F and a drawn strict phi: the
    search gives the oracle's result.  Over the domains QQ and omega the
    strict isomorphism is unique and is found; over Z/8, GF(4) and Z/4[[b]]
    the first solution of a degree may lead to an Obstruction later, and an
    isomorphism found must carry F to G below degree N + 1."""
    R, elem, _ = TWIST_CARRIERS[carrier]
    F = fgl.conic_fgl(R, data.draw(elem), data.draw(elem), N + 1)
    G = fgl.strict_apply(F, _draw_strict(data, R, elem, N))
    res = fgl.find_iso(F, G, "strict", N=N)
    _same_iso_result(res, find_iso_oracle(F, G, "strict", N=N))
    if carrier in ("QQ", "omega"):
        assert isinstance(res, fgl.IsoResult)
    if isinstance(res, fgl.IsoResult):
        assert fgl.strict_apply(F, res.phi).F == G.F


@pytest.mark.parametrize("R", [QQ, ModularIntegers(8)], ids=["QQ", "Z/8"])
@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), N=st.integers(2, 10))
def test_find_iso_onto_a_family_law_matches_oracle(R, data, N):
    """G is a family law y^2 + a xy + b y = x^3, dense below degree N + 1,
    so the tables of phi run to the top power.  F is a strict twist of G,
    and over QQ also a conic law; over QQ every law is strictly isomorphic
    to G, and the search finds it."""
    a, b = (R.from_int(data.draw(st.integers(-3, 3))) for _ in range(2))
    G = fgl.make_fgl(fgl.family_law(R, a, b, N))
    elem = st.integers(-4, 4).map(R.from_int)
    sources = [fgl.strict_apply(G, _draw_strict(data, R, elem, N))]
    if R is QQ:
        sources.append(fgl.conic_fgl(R, R.from_int(2), R.from_int(-1), N + 1))
    for F in sources:
        res = fgl.find_iso(F, G, "strict", N=N)
        _same_iso_result(res, find_iso_oracle(F, G, "strict", N=N))
        assert isinstance(res, fgl.IsoResult) or R is not QQ


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), N=st.integers(2, 8))
def test_linear_unit_search_between_conic_twists_matches_oracle(data, N):
    """Over Z/8 a linear-unit search from one conic law to a strict twist of
    another ends in an isomorphism or in an Obstruction at degree 2 or 4,
    after every unit candidate; the oracle's result, either way."""
    R = ModularIntegers(8)
    elem = st.integers(0, 7)
    F = fgl.conic_fgl(R, data.draw(elem), data.draw(elem), N + 1)
    H = fgl.conic_fgl(R, data.draw(elem), data.draw(elem), N + 1)
    G = fgl.strict_apply(H, _draw_strict(data, R, elem, N))
    res = fgl.find_iso(F, G, "linear-unit", N=N)
    _same_iso_result(res, find_iso_oracle(F, G, "linear-unit", N=N))


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), N=st.integers(2, 8))
def test_linear_unit_search_ending_in_obstruction_matches_oracle(data, N):
    """No isomorphism over Z/8, whatever its unit linear term, carries
    x + y + xy (height 1) to a strict twist of x + y: it would carry
    [2](x) = 2x + x^2 to 2 phi(x), forcing an even linear term.  Every
    candidate fails, at the degree the oracle finds."""
    R = ModularIntegers(8)
    F = fgl.multiplicative_fgl(R, R.one(), N + 1)
    elem = st.integers(0, 7)
    G = fgl.strict_apply(fgl.additive_fgl(R, N + 1), _draw_strict(data, R, elem, N))
    res = fgl.find_iso(F, G, "linear-unit", N=N)
    assert isinstance(res, fgl.Obstruction)
    assert sorted(res.details) == sorted(R.render(u) for u in R.unit_candidates(2))
    _same_iso_result(res, find_iso_oracle(F, G, "linear-unit", N=N))


@pytest.mark.parametrize("short_side", ["F", "G"])
def test_find_iso_refuses_degrees_beyond_the_shorter_law(short_side):
    """A law of prec 7 holds total degree 6 and no more: find_iso to degree
    7 or 9 raises, whichever law is the short one, and degree 6 (also the
    default) is solved."""
    short = fgl.multiplicative_fgl(QQ, QQ.from_int(3), 6)
    long = fgl.conic_fgl(QQ, QQ.from_int(1), QQ.from_int(2), 10)
    assert (short.prec, long.prec) == (7, 11)
    F, G = (short, long) if short_side == "F" else (long, short)
    for N in (7, 9):
        with pytest.raises(TruncationError):
            fgl.find_iso(F, G, "strict", N=N)
    res = fgl.find_iso(F, G, "strict", N=6)
    assert isinstance(res, fgl.IsoResult) and res.phi.prec == 7
    assert exact(fgl.find_iso(F, G, "strict").phi) == exact(res.phi)


# -- deterministic operation counts --------------------------------------------

@pytest.fixture
def compose_log(monkeypatch):
    """Records, per Series.compose call, the largest precision among the
    series composed and the result."""
    log = []
    real = Series.compose

    def counted(self, subs):
        out = real(self, subs)
        log.append(max([self.ctx.prec, out.ctx.prec] + [s.ctx.prec for s in subs.values()]))
        return out

    monkeypatch.setattr(Series, "compose", counted)
    return log


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 16, 17, 33])
def test_reverse_makes_logarithmically_many_compositions(monkeypatch, compose_log, n):
    """Reversion solves g(f) = x one degree at a time: it makes no
    composition at all, and no Series product but the powers f^2 .. f^(n-2),
    at most n - 2 of them over QQ.  A product is a call of Series.__mul__
    from outside another product, a one-term factor included."""
    log = {"products": 0, "depth": 0}

    def counting(real):
        def product(a, b):
            log["products"] += not log["depth"]
            log["depth"] += 1
            try:
                return real(a, b)
            finally:
                log["depth"] -= 1
        return product

    monkeypatch.setattr(Series, "__mul__", counting(Series.__mul__))
    ctx = SeriesCtx(QQ, ("x",), n)
    x = ctx.gen("x")
    f = x + (x * x).scale(Fraction(1, 2)) - (x * x * x).scale(3)
    log["products"] = 0
    g = f.reverse()
    assert compose_log == []
    assert log["products"] <= max(n - 2, 0)
    monkeypatch.undo()
    assert exact(g) == exact(reverse_newton_oracle(f))
    assert exact(f.compose({"x": g})) == exact(x)


def test_inverse_step_i_multiplies_at_doubling_precision(monkeypatch):
    precs = []
    real = Series.__mul__

    def counted(a, b):
        out = real(a, b)
        precs.append(out.ctx.prec)
        return out

    monkeypatch.setattr(Series, "__mul__", counted)
    ctx = SeriesCtx(QQ, ("x",), 13)
    x = ctx.gen("x")
    f = ctx.one() + x + (x * x).scale(Fraction(1, 3))
    precs.clear()
    f.inverse()
    assert precs == [2, 2, 4, 4, 8, 8, 13, 13]


@pytest.fixture
def find_iso_log(monkeypatch):
    """Records what a find_iso call does with Series: each composition as
    (step d, largest precision among the series composed and the result),
    and each product outside a composition by its precision.  Step d ends
    with its one _solve_degree call.  The tables of phi hold scalars, so
    their arithmetic over QQ shows in neither list."""
    log = {"steps": 0, "compose": [], "products": [], "depth": 0}
    real_compose, real_mul, real_solve = Series.compose, Series.__mul__, fgl._solve_degree

    def compose(self, subs):
        log["depth"] += 1
        try:
            out = real_compose(self, subs)
        finally:
            log["depth"] -= 1
        precs = [self.ctx.prec, out.ctx.prec] + [s.ctx.prec for s in subs.values()]
        log["compose"].append((log["steps"] + 2, max(precs)))
        return out

    def mul(a, b):
        if not log["depth"]:
            log["products"].append(a.ctx.prec)
        return real_mul(a, b)

    def solve(*args):
        log["steps"] += 1
        return real_solve(*args)

    monkeypatch.setattr(Series, "compose", compose)
    monkeypatch.setattr(Series, "__mul__", mul)
    monkeypatch.setattr(fgl, "_solve_degree", solve)
    return log


@pytest.mark.parametrize("dense", [False, True], ids=["x+y+3xy", "family"])
def test_find_iso_composes_nothing_and_multiplies_only_powers_of_F(find_iso_log, dense):
    """G(phi x, phi y) comes from the tables of phi, never from a
    composition: find_iso makes no compose call, one _solve_degree step per
    degree 2..N, and no Series product but the powers of F, at most N - 1
    of them, all at N + 1.  The dense G runs the tables to the top power."""
    N = 9
    F = fgl.conic_fgl(QQ, QQ.from_int(1), QQ.from_int(2), N + 1)
    G = (fgl.make_fgl(fgl.family_law(QQ, QQ.from_int(1), QQ.from_int(-2), N)) if dense
         else fgl.multiplicative_fgl(QQ, QQ.from_int(3), N + 1))
    find_iso_log.update(steps=0, compose=[], products=[])
    res = fgl.find_iso(F, G, "strict", N=N)
    assert isinstance(res, fgl.IsoResult)
    assert find_iso_log["compose"] == []
    assert find_iso_log["steps"] == N - 1
    assert 0 < len(find_iso_log["products"]) <= N - 1
    assert set(find_iso_log["products"]) == {N + 1}
    _same_iso_result(res, find_iso_oracle(F, G, "strict", N=N))


def test_find_iso_shares_the_powers_of_F_across_candidates(find_iso_log):
    """Every candidate linear term of a linear-unit search reads the same
    powers of F: the products stay at most N - 1 over all of them."""
    N = 6
    Z13 = Z_inverted(3)
    cands = Z13.unit_candidates(3)
    Fc = fgl.conic_fgl(Z13, Fraction(3), Fraction(3), N + 1)
    Fm = fgl.conic_fgl(Z13, cands[0], Fraction(0), N + 1)
    find_iso_log.update(steps=0, compose=[], products=[])
    res = fgl.find_iso(Fc, Fm, "linear-unit", N=N, unit_candidates=cands)
    assert isinstance(res, fgl.Obstruction)
    assert find_iso_log["steps"] > N - 1
    assert len(find_iso_log["products"]) <= N - 1
    assert set(find_iso_log["products"]) == {N + 1}
