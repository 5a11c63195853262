import json
import os
import re

import pytest

from chromalg.checks import REGISTRY, SUITES
from chromalg.cli import build_parser, main
from chromalg.report import RunConfig, render_json, render_text, run_checks, suite_table


def test_registry_size_and_suites():
    assert len(REGISTRY) >= 40
    assert set(c.suite for c in REGISTRY) == set(SUITES)
    assert len(SUITES) == 7
    ids = [c.id for c in REGISTRY]
    assert len(ids) == len(set(ids)), "check ids must be unique"


def test_every_claim_resolves_to_claims_doc():
    here = os.path.dirname(__file__)
    doc = open(os.path.join(here, "..", "docs", "CLAIMS.md"), encoding="utf-8").read()
    anchors = set(re.findall(r"^## (.+)$", doc, flags=re.M))
    for c in REGISTRY:
        assert c.claim, f"{c.id} has no claim"
        assert c.claim in anchors, f"{c.id} claim '{c.claim}' missing from CLAIMS.md"


def test_single_suite_run_and_schema():
    cfg = RunConfig(suites=("moduli",))
    rep = run_checks(cfg)
    assert set(rep) == {"header", "checks", "summary"}
    assert set(rep["header"]) == {"version", "config", "timing_ms"}
    assert all(set(c) == {"id", "suite", "status", "claim", "details"}
               for c in rep["checks"])
    assert rep["summary"]["fail"] == 0
    assert [c["id"] for c in rep["checks"]] == sorted(c["id"] for c in rep["checks"])


def test_reports_identical_modulo_header():
    cfg = RunConfig(suites=("modularforms", "kforms"))
    r1 = run_checks(cfg)
    r2 = run_checks(cfg)
    assert r1["checks"] == r2["checks"]
    assert r1["summary"] == r2["summary"]
    assert render_json(r1).split('"timing_ms"')[0] != ""  # body renders


def test_text_report_is_tab_delimited():
    rep = run_checks(RunConfig(suites=("modularforms",)))
    text = render_text(rep)
    lines = text.strip().split("\n")
    assert lines[0].split("\t") == ["id", "suite", "status", "claim", "details"]
    assert all("\t" in ln for ln in lines[1:-1])


def test_cli_exit_codes(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["modularforms", "--json", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["summary"]["fail"] == 0
    with pytest.raises(SystemExit) as exc:
        main(["bogus-suite"])
    assert exc.value.code == 2


def test_cli_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("suite\t")
    assert "# 7 suites" in out


def test_suite_table_counts_stable():
    t1 = suite_table()
    t2 = suite_table()
    assert t1 == t2
    assert sum(r["checks"] for r in t1) == len(REGISTRY)


def test_verify_seed_env(monkeypatch):
    from chromalg.report import env_seed
    monkeypatch.setenv("VERIFY_SEED", "7")
    assert env_seed() == 7
    monkeypatch.setenv("VERIFY_SEED", "junk")
    with pytest.raises(ValueError):
        env_seed()
    monkeypatch.delenv("VERIFY_SEED")
    assert env_seed() == 0


def test_junk_seed_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("VERIFY_SEED", "junk")
    with pytest.raises(SystemExit) as exc:
        main(["all"])
    assert exc.value.code == 2
    assert "VERIFY_SEED" in capsys.readouterr().err


def test_parser_defaults_are_the_run_config_defaults():
    args = build_parser().parse_args([])
    cfg = RunConfig()
    assert (args.max_degree, args.series_prec, args.two_adic_prec, args.q_terms) == \
        (cfg.max_degree, cfg.series_prec, cfg.two_adic_prec, cfg.q_terms)
    assert tuple(args.suites) == cfg.suites
