"""Deterministic batch runner and report emission.

JSON schema: {"header": {version, config, timing}, "checks": [...],
"summary": {pass, fail, skipped}}.  Timing lives only in the header so that
two runs with the same configuration produce byte-identical bodies; checks are
always emitted sorted by id.  Text output is tab-delimited."""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import asdict, dataclass, fields

from . import __version__
from .checks import SUITES, checks_for


@dataclass
class RunConfig:
    """The fields but `suites` and `seed` are the precisions (PRECISIONS),
    positive ints with one `verify` flag each; every field is a key of the
    report header's config."""
    max_degree: int = 32
    series_prec: int = 12
    two_adic_prec: int = 4
    q_terms: int = 16
    suites: tuple = ("all",)
    seed: int = 0

    def validate(self):
        for name in PRECISIONS + ("seed",):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
            if name != "seed" and value <= 0:
                raise ValueError(f"{name} must be positive")
        bad = [s for s in self.suites if s not in SUITES + ("all",)]
        if bad:
            raise ValueError(f"unknown suite(s): {', '.join(bad)}")


PRECISIONS = tuple(f.name for f in fields(RunConfig) if f.name not in ("suites", "seed"))


def run_checks(cfg: RunConfig) -> dict:
    cfg.validate()
    checks = []
    timing = {}
    for chk in checks_for(cfg.suites):        # sorted by id
        rng = random.Random(cfg.seed)
        t0 = time.perf_counter()
        try:
            status, details = "pass", chk.fn(cfg, rng) or ""
        except Exception as exc:                   # noqa: BLE001 - full reports
            status, details = "fail", f"{type(exc).__name__}: {exc}"
        timing[chk.id] = int((time.perf_counter() - t0) * 1000)
        checks.append({"id": chk.id, "suite": chk.suite, "status": status,
                       "claim": chk.claim, "details": details})
    return {
        "header": {
            "version": __version__,
            "config": {**asdict(cfg), "suites": sorted(cfg.suites)},
            "timing_ms": timing,
        },
        "checks": checks,
        "summary": {status: sum(1 for c in checks if c["status"] == status)
                    for status in ("pass", "fail", "skipped")},
    }


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def render_text(report: dict) -> str:
    lines = ["id\tsuite\tstatus\tclaim\tdetails"]
    for c in report["checks"]:
        details = c["details"].replace("\t", " ").replace("\n", " ")
        lines.append(f"{c['id']}\t{c['suite']}\t{c['status']}\t{c['claim']}\t{details}")
    s = report["summary"]
    lines.append(f"# pass={s['pass']} fail={s['fail']} skipped={s['skipped']}")
    return "\n".join(lines) + "\n"


def suite_table() -> list[dict]:
    out = []
    for suite in SUITES:
        checks = checks_for((suite,))
        out.append({
            "suite": suite,
            "checks": len(checks),
            "claims": sorted({c.claim for c in checks}),
        })
    return out


def render_suite_table() -> str:
    table = suite_table()
    lines = ["suite\tchecks\tclaims"] + [
        f"{row['suite']}\t{row['checks']}\t{', '.join(row['claims'])}" for row in table]
    lines.append(f"# {len(SUITES)} suites, {sum(row['checks'] for row in table)} checks")
    return "\n".join(lines) + "\n"


def env_seed() -> int:
    """VERIFY_SEED as an int, or 0 when it is unset or empty; ValueError
    when it is not an integer."""
    raw = os.environ.get("VERIFY_SEED", "")
    if not raw:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"VERIFY_SEED must be an integer, got {raw!r}") from None
