"""The `verify` command line.

    verify <suite...> [--max-degree N] [--series-prec N] [--two-adic-prec K]
           [--q-terms N] [--json PATH] [--out PATH] [--list]

Exit codes: 0 all checks pass, 1 failures, 2 usage errors.  VERIFY_SEED seeds
the randomized property checks (default 0); a value that is not an integer
is a usage error."""

from __future__ import annotations

import argparse
import sys

from .checks import SUITES
from .report import (RunConfig, env_seed, render_json, render_suite_table,
                     render_text, run_checks)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="verify",
        description="Run the exact-algebra verification suites.")
    p.add_argument("suites", nargs="*", default=["all"],
                   help=f"suites to run: {', '.join(SUITES)}, or 'all' "
                        "(use 'list' to show the table)")
    defaults = RunConfig()
    for name in ("max_degree", "series_prec", "two_adic_prec", "q_terms"):
        p.add_argument("--" + name.replace("_", "-"), type=int, default=getattr(defaults, name))
    p.add_argument("--json", metavar="PATH", help="write the JSON report here")
    p.add_argument("--out", metavar="PATH", help="write the delimited report here")
    p.add_argument("--list", action="store_true", help="list suites and exit")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    suites = tuple(args.suites) if args.suites else ("all",)
    if args.list or list(suites) == ["list"]:
        sys.stdout.write(render_suite_table())
        return 0
    try:
        cfg = RunConfig(
            max_degree=args.max_degree,
            series_prec=args.series_prec,
            two_adic_prec=args.two_adic_prec,
            q_terms=args.q_terms,
            suites=suites,
            seed=env_seed(),
        )
        cfg.validate()
    except ValueError as exc:
        parser.error(str(exc))     # exits with code 2
    report = run_checks(cfg)
    text = render_text(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(render_json(report))
    return 0 if report["summary"]["fail"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
