"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def python(code: str) -> subprocess.CompletedProcess:
    prelude = f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]\n"
    return subprocess.run([sys.executable, "-c", prelude + code], capture_output=True,
                          text=True, timeout=120)


def one_pass(workload, trace=False):
    return run.run_pass(workload, 0, time.monotonic() + 120, trace=trace)


def test_per_layer_names_match_spec():
    plain = {"ops": [], "cpu_s": 1.0, "wall_s": 1.0, "wall_raw_s": 1.0}
    got = run.per_layer({}, {}, plain, {"wall_s": 1.0})
    assert [(k, u) for k, (_, u) in got.items()] == \
        [(m["name"], m["unit"]) for m in SPEC["per_layer"]]


def test_runner_reports_end_to_end_metrics():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "tor-table",
                           "--seed", "3", "--seconds", "0", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == 3
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "tor-table", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_pass_starts_cold():
    res = run.run_pass("tor-table", 0, time.monotonic() + 60, setup_only=True)
    assert 0 < res["setup_s"] < 10


@pytest.mark.parametrize("warmup", ["import chromalg.rings",
                                    "import chromalg.steenrod as s; s.basis(4)"])
def test_warm_pass_is_refused(warmup):
    proc = python(f"{warmup}\nimport bench_pass\n"
                  "bench_pass.main(['--workload', 'tor-table', '--seed', '0', '--setup-only'])")
    assert proc.returncode != 0
    assert "NotCold" in proc.stderr


def test_score_counts_every_kind_of_failure():
    ref = {"a": "d1", "b": "d2", "c": "d3", "d": "d4"}
    ops = [{"id": "a", "ok": True, "digest": "d1"},
           {"id": "b", "ok": True, "digest": "other"},      # digest mismatch
           {"id": "c", "ok": False, "digest": None},         # raised
           {"id": "e", "ok": True, "digest": "d5"}]          # not in the reference
    assert run.score(ops, ref) == (5, 4)                     # d is missing
    assert run.score(ops[:1], {"a": "d1"}) == (1, 0)


def test_seed_guard():
    report = {"header": {"config": {"seed": 7}}}
    workloads.check_seed_echo(report, 7)
    for bad in (0, "7"):
        with pytest.raises(workloads.SeedMismatch):
            workloads.check_seed_echo({"header": {"config": {"seed": bad}}}, 7)


def test_wrappers_are_rebound_everywhere():
    proc = python("""
import chromalg.checks
from chromalg import bp, fgl, linalg, series, steenrod, rings
from chromalg.series import Series
from spans import Tracer
import bench_pass
tr = Tracer().install(bench_pass.SIZES)
assert bp.smith_normal_form is linalg.smith_normal_form
assert bp.f2_rref is linalg.f2_rref and steenrod.f2_rref is linalg.f2_rref
assert fgl.f2_solve is linalg.f2_solve
assert fgl.weierstrass_prepare is series.weierstrass_prepare
for fn in (linalg.smith_normal_form, fgl.f2_solve, series.weierstrass_prepare,
           Series.__mul__, rings.ModularIntegers.mul, steenrod.basis):
    assert hasattr(fn, "__wrapped__"), fn
assert Series.__rmul__ is Series.__mul__
steenrod.basis(5); steenrod.basis(5)
assert steenrod.basis.cache_info().hits == 1
R = series.SeriesRing(rings.ModularIntegers(4), "b", 4)
x = R.gen()
R.mul(x, x + 1)
rep = tr.report()
assert rep["series.Series.__mul__"]["calls"] == 1, rep
assert rep["series.Series.__mul__"]["pairs"] == 2, rep
assert rep["series.SeriesRing.mul"]["calls"] == 1
assert rep["steenrod.basis"]["calls"] == 2
print("ok")
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


@pytest.mark.parametrize("workload", ["tor-table", "iso-omega"])
def test_traced_pass_matches_untraced(workload):
    plain = one_pass(workload)
    traced = one_pass(workload, trace=True)
    ref = json.loads(run.REFERENCE.read_text())[workload]["ops"]
    digests = [{op["id"]: op["digest"] for op in p["ops"]} for p in (plain, traced)]
    assert digests[0] == digests[1] == ref
    assert all(op["ok"] for op in plain["ops"] + traced["ops"])
    self_total = sum(v["self_s"] for v in traced["spans"].values())
    assert 0 < self_total <= traced["wall_raw_s"]
    layers = run.per_layer(traced["spans"], traced["caches"], plain, traced)
    if workload == "tor-table":
        assert layers["series.mul.calls"][0] == 0
        assert layers["linalg.solve_many.calls"][0] > 0
    else:
        assert layers["rings.QuotientExtension.self_s"][0] > 0
