import json
import os
import re

import pytest

from chromalg.checks import REGISTRY, SUITES, check
from chromalg.cli import build_parser, main
from chromalg.report import (PRECISIONS, RunConfig, render_json, render_text, run_checks,
                             suite_table)


def test_registry_size_and_suites():
    assert len(REGISTRY) >= 40
    assert set(c.suite for c in REGISTRY) == set(SUITES)
    assert len(SUITES) == 7
    ids = [c.id for c in REGISTRY]
    assert len(ids) == len(set(ids)), "check ids must be unique"


def test_a_check_id_names_its_suite_and_claim():
    """Suite and claim come from the id: SUITES keeps the report order, and
    an id whose prefix names no suite is refused at registration."""
    assert SUITES == ("elliptic", "fgl", "bp", "steenrod", "moduli", "modularforms", "kforms")
    assert all(c.id == f"{c.id.split('.')[0]}.{c.claim}" for c in REGISTRY)
    before = list(REGISTRY)
    for bad in ("ellx.family-j", "family-j", "fgl."):
        with pytest.raises(ValueError, match="is not <prefix>.<claim>"):
            check(bad)
    assert REGISTRY == before


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
    assert main(["list"]) == 0
    assert capsys.readouterr().out == out


def test_cli_out_writes_the_text_report_and_prints_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("VERIFY_SEED", raising=False)
    path = tmp_path / "r.tsv"
    assert main(["modularforms", "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_text() == render_text(run_checks(RunConfig(suites=("modularforms",))))


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
    for name in PRECISIONS:
        assert getattr(args, name) == getattr(cfg, name), name
    assert tuple(args.suites) == cfg.suites


def test_each_precision_is_one_flag_and_one_header_key():
    """PRECISIONS is every RunConfig field but suites and seed; the parser has
    one int flag per precision and the header's config one key per field."""
    assert PRECISIONS == ("max_degree", "series_prec", "two_adic_prec", "q_terms")
    parser = build_parser()
    assert [a.dest for a in parser._actions if a.type is int] == list(PRECISIONS)
    for k, name in enumerate(PRECISIONS, 2):
        assert getattr(parser.parse_args(["--" + name.replace("_", "-"), str(k)]), name) == k
    config = run_checks(RunConfig(suites=("moduli",), seed=3))["header"]["config"]
    assert set(config) == set(PRECISIONS) | {"suites", "seed"}
    assert (config["suites"], config["seed"]) == (["moduli"], 3)


@pytest.mark.parametrize("bad", [True, 16.5, "16"], ids=["bool", "float", "str"])
def test_run_config_refuses_a_precision_or_seed_that_is_not_an_int(bad):
    """Negative control: a bool passes `<= 0` and would run as 1, a float
    would reach the checks; each is refused by name, before any check runs."""
    RunConfig().validate()
    for name in PRECISIONS + ("seed",):
        with pytest.raises(ValueError, match=f"^{name} must be an int"):
            run_checks(RunConfig(**{name: bad}))


def test_report_body_script_names_the_differing_keys(tmp_path):
    """tests/check_report_body.py, which CI runs after each `verify --json`:
    exit 0 on the recorded body, a failure naming `summary` once the
    summary changes, and naming the first five differing check ids, in id
    order, once checks change or go missing."""
    import subprocess
    import sys
    here = os.path.dirname(__file__)
    script = os.path.join(here, "check_report_body.py")
    expected = os.path.join(here, "data", "verify_default_body.json")
    with open(expected) as f:
        body = json.load(f)
    report = tmp_path / "report.json"

    def run(doc):
        report.write_text(json.dumps(doc))
        return subprocess.run([sys.executable, script, str(report), expected, "default"],
                              capture_output=True, text=True, timeout=60)

    same = run({**body, "header": {"timing_ms": 1}})
    assert same.returncode == 0, same.stderr
    changed = run({**body, "summary": {**body["summary"], "pass": 59, "fail": 1}})
    assert changed.returncode != 0
    assert changed.stderr.strip() == f"the default report differs from {expected} in: summary"
    first = body["checks"][0]
    checks = [{**first, "details": first["details"] + " (changed)"}] + body["checks"][1:]
    changed = run({**body, "checks": checks})
    assert changed.returncode != 0
    assert changed.stderr.strip() == \
        f"the default report differs from {expected} in: checks (1 differing: {first['id']})"
    changed = run({**body, "checks": checks[:-6], "summary": {}})
    ids = ", ".join([first["id"]] + [c["id"] for c in body["checks"][-6:-2]])
    assert changed.stderr.strip() == f"the default report differs from {expected} in: " \
        f"checks (7 differing, the first 5: {ids}), summary"


@pytest.mark.parametrize("seed", [0, 1])
def test_deeper_q_expansion_body_is_the_recorded_one(seed):
    """The body of `verify moduli modularforms --q-terms 64`, at either seed,
    is tests/data/verify_q64_body.json, the file CI compares that run with."""
    report = run_checks(RunConfig(q_terms=64, suites=("moduli", "modularforms"), seed=seed))
    with open(os.path.join(os.path.dirname(__file__), "data", "verify_q64_body.json")) as f:
        assert {k: report[k] for k in ("checks", "summary")} == json.load(f)
