"""Compare the body of a `verify --json` report with a recorded one.

    python3 tests/check_report_body.py REPORT EXPECTED LABEL

Exits 0 when the report's "checks" and "summary" equal those of EXPECTED,
and otherwise fails with a message naming the keys that differ, for
example "the default report differs from EXPECTED in: summary".
"""

import json
import sys


def main(argv):
    report, expected, label = argv
    with open(report) as f:
        got = json.load(f)
    with open(expected) as f:
        want = json.load(f)
    differ = [k for k in ("checks", "summary") if got[k] != want[k]]
    if differ:
        sys.exit(f"the {label} report differs from {expected} in: " + ", ".join(differ))


if __name__ == "__main__":
    main(sys.argv[1:])
