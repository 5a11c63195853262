"""Record the benchmark's reference outputs and its baseline.

    python3 perfbench/record.py reference   # writes perfbench/reference.json
    python3 perfbench/record.py baseline    # writes perfbench/results/baseline.json

`reference` runs one untraced pass of every workload (verify-all once per
seed in REFERENCE_SEEDS), requires every operation to pass its identity, and
stores each operation's output digest.  verify-all's per-check digests must
be the same for every recorded seed: the report body does not depend on the
seed.  Record again only when a change is meant to alter outputs.

`baseline` runs run.py as the benchmark harness does: BASELINE_SEEDS untraced
runs and one traced run per workload.  It stores the median and quartiles of
each end-to-end metric, each metric's spread (interquartile range / median)
next to its bound, the per-layer metrics, machine facts and the predicted
interactions between layer and end-to-end metrics.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

REFERENCE_SEEDS = tuple(range(10))
BASELINE_SEEDS = tuple(range(1, 11))
BASELINE = run.HERE / "results" / "baseline.json"

# Which end-to-end metric each layer metric should move, on which workload;
# "unchanged" lists the workloads on which the prediction is no change.
INTERACTIONS = [
    {"layer_metrics": ["series.mul.self_s", "series.mul.pairs", "rings.calls",
                       "rings.ModularIntegers.self_s", "rings.Rationals.self_s"],
     "moves": "wall_s", "on": ["isogeny-deep", "verify-all"], "unchanged": ["tor-table"],
     "note": "moves isogeny-deep more strongly than verify-all"},
    {"layer_metrics": ["series.inverse.calls", "series.reverse.calls",
                       "rings.QuotientExtension.self_s"],
     "moves": "wall_s", "on": ["iso-omega"], "unchanged": [],
     "note": "a Newton or packed-kernel series change must show no regression here"},
    {"layer_metrics": ["linalg.solve_many.self_s", "linalg.smith_normal_form.self_s",
                       "linalg.smith_normal_form.calls", "bp.koszul_tor.self_s"],
     "moves": "wall_s", "on": ["tor-table", "verify-all"],
     "unchanged": ["isogeny-deep", "iso-omega"],
     "note": "about 80% of tor-table, about 9% of verify-all via bp.koszul-regular"},
    {"layer_metrics": ["fgl.canonical_subgroup.calls"],
     "moves": "wall_s", "on": ["verify-all"], "unchanged": [],
     "note": "shared check fixtures; watch peak_rss_mb on verify-all"},
    {"layer_metrics": ["steenrod.milnor_product_mono.hit_ratio", "steenrod.basis.hit_ratio",
                       "steenrod.milnor_product_mono.calls"],
     "moves": "wall_s", "on": ["tor-table", "verify-all"], "unchanged": [],
     "note": "about 20% of tor-table, about 4% of verify-all"},
    {"layer_metrics": ["checks.slowest.s"],
     "moves": "wall_s", "on": ["verify-all"], "unchanged": [],
     "note": "lower bound on verify-all wall_s under check-level parallelism on 2 cores"},
    {"layer_metrics": ["trace.overhead_frac"],
     "moves": None, "on": [], "unchanged": [],
     "note": "budget that in-program spans must stay inside"},
    {"layer_metrics": [],
     "moves": "setup_s", "on": ["verify-all", "isogeny-deep", "iso-omega", "tor-table"],
     "unchanged": [], "note": "work moved into import shows here"},
]


def record_reference():
    out = {}
    for name in run.WORKLOADS:
        seeds = REFERENCE_SEEDS if name == "verify-all" else (0,)
        digests = None
        for seed in seeds:
            res = run.run_pass(name, seed, time.monotonic() + run.RUN_LIMIT_S)
            bad = [op["id"] for op in res["ops"] if not op["ok"]]
            if bad:
                sys.exit(f"{name} seed {seed}: operations failed: {bad}")
            got = {op["id"]: op["digest"] for op in res["ops"]}
            if digests is not None and got != digests:
                sys.exit(f"{name}: digests differ between seeds")
            digests = got
            print(f"{name} seed {seed}: {len(got)} operations", flush=True)
        out[name] = {"seeds": list(seeds) if name == "verify-all" else "ignored",
                     "ops": digests}
    out["source_rev"] = git_rev()
    run.REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def git_rev():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def harness_run(name, seed, seconds, trace):
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True,
                          timeout=180)
    res = json.loads(proc.stdout.splitlines()[-1])
    res["run_s"] = time.monotonic() - t0
    return res


def record_baseline():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        runs = []
        for seed in BASELINE_SEEDS:
            runs.append(harness_run(name, seed, spec["run_seconds"], 0))
            print(name, seed, {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()},
                  f"{runs[-1]['run_s']:.1f} s", flush=True)
        traced = harness_run(name, BASELINE_SEEDS[0], spec["run_seconds"], 1)
        e2e = {}
        for metric, bound in bounds.items():
            vals = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            e2e[metric] = {"median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med, "bound": bound,
                           "unit": runs[0]["metrics"][metric]["unit"]}
            print(f"  {metric}: median {med:.5g}, spread {(q3 - q1) / med:.4f} "
                  f"(bound {bound})", flush=True)
        workloads[name] = {
            "why": w["why"], "runs": len(runs),
            "all_correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "run_s_max": max(r["run_s"] for r in runs + [traced]),
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    BASELINE.parent.mkdir(exist_ok=True)
    BASELINE.write_text(json.dumps({
        "source_rev": git_rev(),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "implementation": platform.python_implementation(),
                    "platform": platform.platform()},
        "run_seconds": spec["run_seconds"], "seeds": list(BASELINE_SEEDS),
        "workloads": workloads, "interactions": INTERACTIONS,
    }, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["reference"]:
        record_reference()
    elif sys.argv[1:] == ["baseline"]:
        record_baseline()
    else:
        sys.exit(__doc__)
