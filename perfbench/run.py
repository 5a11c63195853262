"""Benchmark runner for chromalg.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...     # every workload in turn

Load is a closed loop with one client: run.py runs one pass at a time,
each in a fresh interpreter (bench_pass.py), because chromalg keeps
lru_cache tables and every `verify` user pays for a cold process.

--trace 0 runs set-up probes, then passes for S seconds, and reports the
end-to-end metrics:
- wall_s: median pass time;
- setup_s: median time from spawning an interpreter until chromalg and the
  check registry are imported;
- peak_rss_mb: median peak RSS of a pass;
- ok_frac: operations that passed their identity and digest check, over
  those attempted; fail_frac = 1 - ok_frac is printed beside it.
Both times are rescaled to a fixed machine speed by the speed probe that runs
while they are measured (see bench_pass.py); their raw medians are printed
beside them.

--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of the traced pass, with trace.overhead_frac = (traced wall -
untraced wall) / untraced wall.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PASS = HERE / "bench_pass.py"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("verify-all", "isogeny-deep", "iso-omega", "tor-table")
SUITES = ("elliptic", "fgl", "bp", "steenrod", "moduli", "modularforms", "kforms")
SETUP_PROBES = 5
RUN_LIMIT_S = 170          # a run must end within 180 s

# a subclass's methods count toward the carrier it specialises
CARRIERS = {"Integers": "Integers", "Rationals": "Rationals",
            "LocalizedIntegers": "LocalizedIntegers",
            "ModularIntegers": "ModularIntegers", "PrimeField": "ModularIntegers",
            "QuotientExtension": "QuotientExtension"}


class PassFailed(RuntimeError):
    pass


def run_pass(workload: str, seed: int, deadline: float, trace=False, setup_only=False) -> dict:
    """Spawn one pass; return its JSON result with the set-up time (raw and
    rescaled) and `pass_s`, the time from spawn to exit."""
    cmd = [sys.executable, str(PASS), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - spawned, 1))
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass of {workload} did not end before the run limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(f"pass of {workload} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    sys.stderr.write(proc.stderr)
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_raw_s"] = out["setup_end"] - spawned - out["setup_probe_s"]
    out["setup_s"] = out["setup_raw_s"] * out["setup_speed"]
    out["pass_s"] = time.monotonic() - spawned
    return out


def score(ops: list, ref_ops: dict) -> tuple[int, int]:
    """(attempted, failed): an operation fails if it raised, if its identity
    did not hold, if its digest differs from the reference, or if it is
    missing from the pass or from the reference."""
    got = {op["id"]: op for op in ops}
    ids = set(got) | set(ref_ops)
    failed = sum(1 for i in ids
                 if i not in got or not got[i]["ok"] or got[i]["digest"] != ref_ops.get(i))
    return len(ids), failed


def end_to_end(workload, seed, seconds, ref_ops):
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    setups = [run_pass(workload, seed, deadline, setup_only=True)
              for _ in range(SETUP_PROBES)]
    # closed loop: start another pass only if it should end within the run
    passes = []
    while not passes or time.monotonic() + passes[-1]["pass_s"] - start <= seconds:
        passes.append(run_pass(workload, seed, deadline))
    setups += passes
    attempted = failed = 0
    for p in passes:
        a, f = score(p["ops"], ref_ops)
        attempted += a
        failed += f
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    raw = statistics.median(p["wall_raw_s"] for p in passes)
    raw_setup = statistics.median(p["setup_raw_s"] for p in setups)
    notes = {"wall_s": f"median of {len(passes)} passes; raw median {raw:.4f} s",
             "setup_s": f"median of {len(setups)} set-ups; raw median {raw_setup:.4f} s",
             "peak_rss_mb": f"median of {len(passes)} passes",
             "ok_frac": f"fail_frac = {failed / attempted:.4g} ratio: "
                        f"{failed} of {attempted} operations failed"}
    return attempted, failed, metrics, notes


def per_layer(spans: dict, caches: dict, plain: dict, traced: dict) -> dict:
    """Per-layer metrics from a traced pass; checks.* and run.cpu_s come from
    the untraced pass `plain`."""
    def spans_where(pred):
        return [v for k, v in spans.items() if pred(k.split("."))]

    def total(field, pred):
        return sum(v[field] for v in spans_where(pred))

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    def hit_ratio(name):
        info = caches.get(name)
        lookups = info["hits"] + info["misses"] if info else 0
        return info["hits"] / lookups if lookups else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (total("self_s", lambda p, l=layer: p[0] == l), "s")
    # rings
    m["rings.calls"] = (total("calls", lambda p: p[0] == "rings"), "count")
    for op in ("mul", "inv"):
        m[f"rings.{op}.calls"] = (total("calls", lambda p, o=op: p[0] == "rings"
                                        and len(p) == 3 and p[2] == o), "count")
    for carrier in sorted(set(CARRIERS.values())):
        m[f"rings.{carrier}.self_s"] = (total("self_s", lambda p, c=carrier: p[0] == "rings"
                                              and CARRIERS.get(p[1]) == c), "s")
    # series
    mul = "series.Series.__mul__"
    m["series.mul.calls"] = (span(mul, "calls"), "count")
    m["series.mul.self_s"] = (span(mul, "self_s"), "s")
    m["series.mul.pairs"] = (span(mul, "pairs"), "count")
    m["series.mul.max_prec"] = (span(mul, "max_prec"), "count")
    m["series.add.calls"] = (span("series.Series.__add__", "calls"), "count")
    m["series.add.self_s"] = (span("series.Series.__add__", "self_s"), "s")
    m["series.truncate.calls"] = (span("series.Series.truncate", "calls"), "count")
    for fn in ("inverse", "compose", "reverse"):
        m[f"series.{fn}.calls"] = (span(f"series.Series.{fn}", "calls"), "count")
        m[f"series.{fn}.total_s"] = (span(f"series.Series.{fn}", "total_s"), "s")
    m["series.weierstrass_prepare.calls"] = (span("series.weierstrass_prepare", "calls"), "count")
    m["series.weierstrass_prepare.total_s"] = (span("series.weierstrass_prepare", "total_s"), "s")
    m["series.SeriesRing.self_s"] = (total("self_s", lambda p: p[:2] == ["series", "SeriesRing"]), "s")
    # poly
    m["poly.calls"] = (total("calls", lambda p: p[0] == "poly"), "count")
    m["poly.mul.calls"] = (span("poly.PolyRing.mul", "calls"), "count")
    # linalg
    sm = "linalg.FieldOps.solve_many"
    m["linalg.solve_many.calls"] = (span(sm, "calls"), "count")
    m["linalg.solve_many.self_s"] = (span(sm, "self_s"), "s")
    m["linalg.solve_many.max_cols"] = (span(sm, "max_cols"), "count")
    snf = "linalg.smith_normal_form"
    m["linalg.smith_normal_form.calls"] = (span(snf, "calls"), "count")
    m["linalg.smith_normal_form.self_s"] = (span(snf, "self_s"), "s")
    m["linalg.smith_normal_form.max_dim"] = (span(snf, "max_dim"), "count")
    for fn in ("hnf_rows", "int_kernel"):
        m[f"linalg.{fn}.calls"] = (span(f"linalg.{fn}", "calls"), "count")
        m[f"linalg.{fn}.self_s"] = (span(f"linalg.{fn}", "self_s"), "s")
    is_f2 = lambda p: p[0] == "linalg" and p[1].startswith("f2_")  # noqa: E731
    m["linalg.f2.calls"] = (total("calls", is_f2), "count")
    m["linalg.f2.self_s"] = (total("self_s", is_f2), "s")
    # elliptic
    m["elliptic.formal_group_of_curve.calls"] = (span("elliptic.formal_group_of_curve", "calls"), "count")
    m["elliptic.formal_group_of_curve.total_s"] = (span("elliptic.formal_group_of_curve", "total_s"), "s")
    # fgl
    for fn in ("canonical_subgroup", "quotient_by_subgroup", "recognize_in_family",
               "find_iso", "validate_fgl", "hazewinkel_generators"):
        m[f"fgl.{fn}.calls"] = (span(f"fgl.{fn}", "calls"), "count")
        m[f"fgl.{fn}.total_s"] = (span(f"fgl.{fn}", "total_s"), "s")
    m["fgl.quotient_by_subgroup.self_s"] = (span("fgl.quotient_by_subgroup", "self_s"), "s")
    # bp
    for field, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s")):
        m[f"bp.koszul_tor.{field}"] = (span("bp.koszul_tor", field), unit)
    m["bp.regular_sequence_check.total_s"] = (span("bp.regular_sequence_check", "total_s"), "s")
    # steenrod
    m["steenrod.milnor_product_mono.calls"] = (span("steenrod.milnor_product_mono", "calls"), "count")
    m["steenrod.milnor_product_mono.hit_ratio"] = (hit_ratio("steenrod.milnor_product_mono"), "ratio")
    m["steenrod.basis.hit_ratio"] = (hit_ratio("steenrod.basis"), "ratio")
    m["steenrod.square_check.total_s"] = (span("steenrod.square_check", "total_s"), "s")
    m["steenrod.QuotientModule.total_s"] = (span("steenrod.QuotientModule.__init__", "total_s"), "s")
    # checks and the run
    suite_s = {s: 0.0 for s in SUITES}
    for op in plain["ops"]:
        if op["suite"] in suite_s:
            suite_s[op["suite"]] += op["ms"] / 1000
    for s in SUITES:
        m[f"checks.{s}.s"] = (suite_s[s], "s")
    m["checks.slowest.s"] = (max((op["ms"] / 1000 for op in plain["ops"] if op["suite"]),
                                 default=0.0), "s")
    m["run.cpu_s"] = (plain["cpu_s"], "s")
    m["run.wall_raw_s"] = (plain["wall_raw_s"], "s")
    m["trace.overhead_frac"] = ((traced["wall_s"] - plain["wall_s"]) / plain["wall_s"], "ratio")
    return m


def traced_run(workload, seed, ref_ops):
    deadline = time.monotonic() + RUN_LIMIT_S
    plain = run_pass(workload, seed, deadline)
    traced = run_pass(workload, seed, deadline, trace=True)
    attempted = failed = 0
    for p in (plain, traced):
        a, f = score(p["ops"], ref_ops)
        attempted += a
        failed += f
    metrics = per_layer(traced["spans"], traced["caches"], plain, traced)
    notes = {"trace.overhead_frac": f"rescaled wall: untraced {plain['wall_s']:.3f} s, "
                                    f"traced {traced['wall_s']:.3f} s"}
    return attempted, failed, metrics, notes


def run_one(workload, seed, seconds, trace, reference) -> dict:
    ref_ops = reference[workload]["ops"]
    if trace:
        attempted, failed, metrics, notes = traced_run(workload, seed, ref_ops)
    else:
        attempted, failed, metrics, notes = end_to_end(workload, seed, seconds, ref_ops)
    print(f"# {workload}  seed={seed}  trace={int(trace)}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:42s} {value:14.6g} {unit}{note}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="chromalg benchmark runner")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "chromalg" / "__init__.py").is_file():
        print(f"no chromalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds, bool(args.trace), reference)
    except PassFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
