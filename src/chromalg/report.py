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
from dataclasses import dataclass

from . import __version__
from .checks import SUITES, checks_for


@dataclass
class RunConfig:
    max_degree: int = 32
    series_prec: int = 12
    two_adic_prec: int = 4
    q_terms: int = 16
    suites: tuple = ("all",)
    seed: int = 0

    def validate(self):
        for name in ("max_degree", "series_prec", "two_adic_prec", "q_terms"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        bad = [s for s in self.suites if s not in SUITES + ("all",)]
        if bad:
            raise ValueError(f"unknown suite(s): {', '.join(bad)}")


@dataclass
class CheckResult:
    id: str
    suite: str
    status: str          # pass | fail | skipped
    claim: str
    details: str
    elapsed_ms: int = 0


def run_checks(cfg: RunConfig) -> dict:
    cfg.validate()
    selected = checks_for(cfg.suites)
    results = []
    timing = {}
    for chk in selected:
        rng = random.Random(cfg.seed)
        t0 = time.perf_counter()
        try:
            details = chk.fn(cfg, rng)
            status = "pass"
            details = details or ""
        except Exception as exc:                   # noqa: BLE001 - full reports
            status = "fail"
            details = f"{type(exc).__name__}: {exc}"
        ms = int((time.perf_counter() - t0) * 1000)
        timing[chk.id] = ms
        results.append(CheckResult(chk.id, chk.suite, status, chk.claim, details, ms))
    results.sort(key=lambda r: r.id)
    summary = {
        "pass": sum(1 for r in results if r.status == "pass"),
        "fail": sum(1 for r in results if r.status == "fail"),
        "skipped": sum(1 for r in results if r.status == "skipped"),
    }
    return {
        "header": {
            "version": __version__,
            "config": {
                "max_degree": cfg.max_degree,
                "series_prec": cfg.series_prec,
                "two_adic_prec": cfg.two_adic_prec,
                "q_terms": cfg.q_terms,
                "suites": sorted(cfg.suites),
                "seed": cfg.seed,
            },
            "timing_ms": {k: timing[k] for k in sorted(timing)},
        },
        "checks": [
            {"id": r.id, "suite": r.suite, "status": r.status,
             "claim": r.claim, "details": r.details}
            for r in results
        ],
        "summary": summary,
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
    lines = ["suite\tchecks\tclaims"]
    for row in suite_table():
        lines.append(f"{row['suite']}\t{row['checks']}\t{', '.join(row['claims'])}")
    total = sum(r["checks"] for r in suite_table())
    lines.append(f"# {len(SUITES)} suites, {total} checks")
    return "\n".join(lines) + "\n"


def env_seed(default: int = 0) -> int:
    """VERIFY_SEED as an int, or default when it is unset or empty; ValueError
    when it is not an integer."""
    raw = os.environ.get("VERIFY_SEED", "")
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"VERIFY_SEED must be an integer, got {raw!r}") from None
