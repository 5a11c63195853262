"""The four benchmark workloads.

Each workload returns a list of operations.  An operation is a dict with
`id`, `ok` (its identity held and it did not raise), `digest` (SHA-256 of its
canonical output, or None when it raised), `ms` and `suite`.  run.py
compares every digest with `reference.json`.

Only `verify-all` uses the seed: it is the check seed of the run.  The other
three workloads run fixed inputs and ignore it.

Why these four:
- verify-all is the product run, dominated by series and rings at the small
  precisions the checks ship with;
- isogeny-deep runs the same series mul/inverse/reverse path at larger sizes,
  so a kernel whose gain grows with size shows here and not only in
  verify-all;
- iso-omega solves degree by degree over a QuotientExtension of Fractions,
  the path where a series change aimed at Z/2^k[[b]] has regressed before;
- tor-table exercises linalg, bp and steenrod and never calls series, so a
  series change should leave it unchanged.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from fractions import Fraction

from chromalg import bp, fgl, steenrod
from chromalg.report import RunConfig, run_checks
from chromalg.rings import omega_ring, sqrt_minus3
from chromalg.series import Series, SeriesCtx


class SeedMismatch(RuntimeError):
    """The report header does not echo the seed the benchmark asked for."""


def canon(x):
    """A JSON-ready form of an algebra value that is equal for equal values."""
    if isinstance(x, Series):
        return {"vars": list(x.ctx.vars), "prec": x.ctx.prec,
                "terms": [[list(e), canon(c)] for e, c in sorted(x.terms.items())]}
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (tuple, list)):
        return [canon(v) for v in x]
    if isinstance(x, frozenset):
        return sorted((canon(v) for v in x), key=repr)
    if isinstance(x, dict):
        return sorted(([canon(k), canon(v)] for k, v in x.items()), key=repr)
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(x) -> str:
    text = json.dumps(canon(x), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_seed_echo(report: dict, seed: int):
    echoed = report["header"]["config"]["seed"]
    if type(echoed) is not int or echoed != seed:
        raise SeedMismatch(f"report ran with seed {echoed!r}, asked for {seed!r}")


def verify_all(seed: int) -> list[dict]:
    """All 7 suites in process; one operation per check."""
    report = run_checks(RunConfig(seed=int(seed)))
    check_seed_echo(report, seed)
    timing = report["header"]["timing_ms"]
    return [{"id": c["id"], "ok": c["status"] == "pass", "digest": digest(c),
             "ms": timing[c["id"]], "suite": c["suite"]}
            for c in report["checks"]]


# -- isogeny-deep ------------------------------------------------------------

def _frobenius_quotient_deep(state):
    """Criterion 5 at b-precision 10: the quotient of the A = 1 family over
    F_2[[b]] by its canonical subgroup is the b -> b^2 twist."""
    F1 = fgl.two_adic_family_fgl(1, 10, 11)
    K1 = fgl.canonical_subgroup(F1)
    q = fgl.quotient_by_subgroup(F1, K1)
    R = F1.ring
    twist = fgl.family_fgl_at(R, R.mul(R.gen(), R.gen()), 10, check_assoc=False)
    ok = (F1.ring.is_zero(K1.alpha) and q.fgl.F == twist.F
          and q.isogeny.ucoeff(1).is_zero() and R.eq(q.isogeny.ucoeff(2), R.one()))
    return ok, q.fgl.F


def _recognize_k3(state):
    """The quotient over Z/8[[b]] is recognized in the family at b' = b^2 mod 2."""
    F = fgl.two_adic_family_fgl(3, 8, 10)
    q = fgl.quotient_by_subgroup(F, fgl.canonical_subgroup(F))
    rec = fgl.recognize_in_family(q.fgl)
    R = q.fgl.ring
    diff = R.sub(rec.b_param, R.mul(R.gen(), R.gen()))
    ok = all(c % 2 == 0 for c in diff.terms.values())
    return ok, rec.b_param


# -- iso-omega ---------------------------------------------------------------

ISO_N = 20


def _omega_laws():
    W = omega_ring()
    Fc = fgl.conic_fgl(W, W.from_int(3), W.from_int(3), ISO_N + 1)
    Fm = fgl.conic_fgl(W, sqrt_minus3(W), W.zero(), ISO_N + 1)
    return W, Fc, Fm


def _iso_forward(state):
    """The strict isomorphism conic(3, 3) -> x + y + sqrt(-3)xy to degree 20."""
    _, Fc, Fm = _omega_laws()
    res = fgl.find_iso(Fc, Fm, "strict", N=ISO_N)
    if not isinstance(res, fgl.IsoResult):
        return False, None
    state["phi"] = res.phi
    return True, res.phi


def _iso_round_trip(state):
    """The inverse direction, composed with the forward one, is the identity."""
    W, Fc, Fm = _omega_laws()
    back = fgl.find_iso(Fm, Fc, "strict", N=ISO_N)
    if not (isinstance(back, fgl.IsoResult) and "phi" in state):
        return False, None
    comp = back.phi.compose({"t": state["phi"]})
    return comp == SeriesCtx(W, ("t",), ISO_N + 1).gen("t"), back.phi


# -- tor-table ---------------------------------------------------------------

TOR_N = 24


def _koszul_table(state):
    """(2, eta v1, eta v2) is regular through degree 24 and its Koszul Tor is
    F_2[t] in homological degree 0."""
    seq, module, P = bp.bp2_shadow_sequence(TOR_N)
    rep = bp.regular_sequence_check(seq, module, TOR_N)
    tor = bp.koszul_tor(seq, module, TOR_N)
    higher_zero = all(tor.is_zero(s, d) for (s, d) in tor.entries if s > 0)
    twts = [w for g, w in zip(P.gens, P.weights) if g.startswith("t")]
    tor0 = [tor.dim(0, d) for d in range(TOR_N + 1)]
    ok = rep.regular and higher_zero and tor0 == bp.fp_poly_dims(twts, TOR_N)
    return ok, tor.entries


def _quotient_tables(state):
    """Coset tables of A//B for E(1), E(2), A(1), A(2) match the Poincare
    series division."""
    dims, ok = [], True
    for kind, n in (("E", 1), ("E", 2), ("A", 1), ("A", 2)):
        pr = steenrod.Profile(kind, n)
        got = steenrod.QuotientModule(pr, TOR_N).dims()
        ok = ok and got == steenrod.quotient_dims_convolution(pr, TOR_N)
        dims.append(got)
    return ok, dims


def _square(state):
    res = steenrod.square_check(TOR_N)
    return res["ok"], res


STEPS = {
    "isogeny-deep": [("frobenius-quotient-b10", _frobenius_quotient_deep),
                     ("recognize-k3", _recognize_k3)],
    "iso-omega": [("iso-forward", _iso_forward),
                  ("iso-round-trip", _iso_round_trip)],
    "tor-table": [("koszul-tor", _koszul_table),
                  ("quotient-tables", _quotient_tables),
                  ("square-check", _square)],
}

def run_steps(name: str) -> list[dict]:
    ops, state = [], {}
    for step_id, fn in STEPS[name]:
        t0 = time.perf_counter()
        try:
            ok, out = fn(state)
            dig = digest(out)
        except Exception as exc:           # noqa: BLE001 - a step that raises fails
            ok, dig = False, None
            print(f"{name}/{step_id}: {type(exc).__name__}: {exc}", file=sys.stderr)
        ms = (time.perf_counter() - t0) * 1000
        ops.append({"id": step_id, "ok": bool(ok), "digest": dig, "ms": ms, "suite": None})
    return ops


def run_workload(name: str, seed: int) -> list[dict]:
    if name == "verify-all":
        return verify_all(seed)
    return run_steps(name)
