"""Every BENCH_*.json at the repository root is a benchmark record that can
be read back: it parses, names its parent commit and command, claims a
workload and a metric that BENCHMARK.json declares, and holds the runs'
per-workload figures.  BENCHMARK.json is only read."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def declared():
    """(workload names, metric names) of BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({w["name"] for w in bench["workloads"]},
            {m["name"] for m in bench["end_to_end"] + bench["per_layer"]})


def test_the_records_are_found():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_a_record_carries_its_claim_and_runs(path):
    rec = json.loads(path.read_text())
    workloads, metrics = declared()
    assert isinstance(rec["parent_commit"], str) and rec["parent_commit"]
    assert isinstance(rec["command"], str) and rec["command"]
    claim = rec["claim"]
    assert claim["workload"] in workloads
    assert claim["metric"] in metrics
    runs = rec["runs"]
    assert isinstance(runs, list) and runs
    for run in runs:
        assert run["workloads"] and set(run["workloads"]) <= workloads
    claimed = [run["workloads"][claim["workload"]] for run in runs
               if claim["workload"] in run["workloads"]]
    assert claimed
    for figures in claimed:
        for side in ("parent", "change"):
            assert isinstance(figures[claim["metric"]][side]["median"], (int, float))
