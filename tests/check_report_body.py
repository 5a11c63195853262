"""Compare the body of a `verify --json` report with a recorded one.

    python3 tests/check_report_body.py REPORT EXPECTED LABEL

Exits 0 when the report's "checks" and "summary" equal those of EXPECTED,
and otherwise fails with a message naming the keys that differ, for
example "the default report differs from EXPECTED in: summary".  When the
checks differ it also counts and names, the first five in id order, the
check ids whose entry differs or is on one side only: "... in: checks
(2 differing: bp.koszul-regular, fgl.log-examples), summary".
"""

import json
import sys

SHOWN = 5


def differing_ids(got: list, want: list) -> list:
    """Ids, sorted, of the checks whose entries differ or are on one side only."""
    by_id = [{c["id"]: c for c in checks} for checks in (got, want)]
    return sorted(i for i in by_id[0].keys() | by_id[1].keys()
                  if by_id[0].get(i) != by_id[1].get(i))


def main(argv):
    report, expected, label = argv
    with open(report) as f:
        got = json.load(f)
    with open(expected) as f:
        want = json.load(f)
    differ = [k for k in ("checks", "summary") if got[k] != want[k]]
    if "checks" in differ:
        ids = differing_ids(got["checks"], want["checks"])
        first = f", the first {SHOWN}" if len(ids) > SHOWN else ""
        differ[0] = f"checks ({len(ids)} differing{first}: {', '.join(ids[:SHOWN])})"
    if differ:
        sys.exit(f"the {label} report differs from {expected} in: " + ", ".join(differ))


if __name__ == "__main__":
    main(sys.argv[1:])
