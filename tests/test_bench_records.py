"""Every BENCH_*.json at the repository root is a benchmark record that can
be read back: it parses, names its parent commit and command, and holds the
runs' per-workload figures.  Every run of every record has both sides'
medians for every end-to-end metric on every workload of BENCHMARK.json, so
that no regression can be left out.  A record that claims a gain also names
a workload and a metric that BENCHMARK.json declares and has both sides'
medians for it; "claim": null claims no gain.  BENCHMARK.json is only read."""

import copy
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def declared():
    """(workload names, end-to-end metric names, all metric names) of
    BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    return ({w["name"] for w in bench["workloads"]}, end_to_end,
            end_to_end | {m["name"] for m in bench["per_layer"]})


def check_record(rec: dict):
    """AssertionError unless rec is a readable record (module docstring)."""
    workloads, end_to_end, metrics = declared()
    assert isinstance(rec["parent_commit"], str) and rec["parent_commit"]
    assert isinstance(rec["command"], str) and rec["command"]
    runs = rec["runs"]
    assert isinstance(runs, list) and runs
    for run in runs:
        assert set(run["workloads"]) == workloads
        for figures in run["workloads"].values():
            for metric in end_to_end:
                for side in SIDES:
                    assert isinstance(figures[metric][side]["median"], (int, float))
    claim = rec["claim"]
    if claim is None:
        return
    assert claim["workload"] in workloads
    assert claim["metric"] in metrics
    for run in runs:
        for side in SIDES:
            median = run["workloads"][claim["workload"]][claim["metric"]][side]["median"]
            assert isinstance(median, (int, float))


def test_the_records_are_found():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_a_record_carries_its_claim_and_runs(path):
    check_record(json.loads(path.read_text()))


def _no_claim_record() -> dict:
    """A complete record that claims no gain."""
    workloads, end_to_end, _ = declared()
    figures = {m: {side: {"median": 1.0} for side in SIDES} for m in end_to_end}
    return {"parent_commit": "p", "command": "c", "claim": None,
            "runs": [{"workloads": {w: copy.deepcopy(figures) for w in workloads}}]}


def test_a_record_without_a_claim_needs_every_end_to_end_median():
    """Negative controls: a no-gain record that drops a workload, a metric or
    one side's median is refused; the complete one passes."""
    check_record(_no_claim_record())
    workloads, end_to_end, _ = declared()
    w, m = sorted(workloads)[0], sorted(end_to_end)[0]
    for cut in (lambda rec: rec["runs"][0]["workloads"].pop(w),
                lambda rec: rec["runs"][0]["workloads"][w].pop(m),
                lambda rec: rec["runs"][0]["workloads"][w][m].pop("change"),
                lambda rec: rec["runs"][0]["workloads"][w][m]["parent"].update(median=None)):
        rec = _no_claim_record()
        cut(rec)
        with pytest.raises((AssertionError, KeyError)):
            check_record(rec)


def test_a_record_with_a_claim_needs_every_end_to_end_median():
    """Negative controls: a record claiming wall_s on one workload is still
    refused when it drops another workload, another end-to-end metric of the
    claimed workload, or one side's median elsewhere; the complete one
    passes."""
    workloads, end_to_end, _ = declared()
    w, other = sorted(workloads)[:2]
    m = sorted(end_to_end - {"wall_s"})[0]

    def claim_record():
        rec = _no_claim_record()
        rec["claim"] = {"workload": w, "metric": "wall_s"}
        return rec

    check_record(claim_record())
    for cut in (lambda rec: rec["runs"][0]["workloads"].pop(other),
                lambda rec: rec["runs"][0]["workloads"][w].pop(m),
                lambda rec: rec["runs"][0]["workloads"][other]["wall_s"].pop("parent"),
                lambda rec: rec["runs"][0]["workloads"][other][m]["change"].update(median=None)):
        rec = claim_record()
        cut(rec)
        with pytest.raises((AssertionError, KeyError)):
            check_record(rec)
