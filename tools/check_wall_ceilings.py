#!/usr/bin/env python
"""Check a change's benchmark smoke wall times against its base commit's.

usage: python tools/check_wall_ceilings.py --base BASE_JSON [BASE_JSON ...]
                                           --change CHANGE_JSON [CHANGE_JSON ...]

Every file is the report of one ``python -m bench --smoke -o FILE`` run:
the base reports come from a checkout of the commit the change is
measured against, the change reports from the change, both on the same
host and interleaved (CI runs three rounds and alternates which side
goes first).  For every workload the change's median ``wall_s`` must
stay at or below the base's median divided by ``FACTOR``: the change may
run at most 1/0.70 = 1.43 times slower than its base measured beside
it.  One smoke run is one pass per workload, and single passes on a
shared host spread by up to 1.5 times, hence the medians.

Judging both sides on one host is what makes the bound mean anything:
a reference wall time recorded once is tied to the host that took it.

The ceilings catch a slowdown of the whole run.  A slowdown confined to
one layer shows only in proportion to that layer's share of the wall
time; ``tools/check_exact_counts.py`` catches added work exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median

#: The change's median may be at most the base's median / FACTOR.
FACTOR = 0.70


def walls(reports: list[dict], name: str) -> list[float]:
    return [
        report["workloads"][name]["metrics"]["wall_s"]["value"]
        for report in reports
        if name in report["workloads"]
    ]


def check(base: list[dict], change: list[dict]) -> tuple[list[str], list[str]]:
    """(one line per workload, the lines of workloads over their ceiling)."""
    lines, problems = [], []
    if not all(report.get("smoke") for report in base + change):
        return lines, ["a report is not a --smoke run"]
    names = sorted({n for report in base for n in report["workloads"]})
    for name in names:
        before, after = walls(base, name), walls(change, name)
        if len(before) != len(base) or len(after) != len(change):
            problems.append(f"{name}: missing from a report")
            continue
        ceiling = median(before) / FACTOR
        line = (
            f"{name}: median wall_s {median(after):.3f} s over {len(after)} "
            f"runs, ceiling {ceiling:.3f} s (base {median(before):.3f} s "
            f"over {len(before)} runs / {FACTOR})"
        )
        lines.append(line)
        if median(after) > ceiling:
            problems.append(line)
    for name in sorted({n for report in change for n in report["workloads"]}
                       - set(names)):
        lines.append(f"{name}: not in the base reports, not judged")
    return lines, problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Judge smoke wall times against the base commit's."
    )
    parser.add_argument("--base", nargs="+", required=True, type=Path)
    parser.add_argument("--change", nargs="+", required=True, type=Path)
    args = parser.parse_args(argv)
    base = [json.loads(path.read_text()) for path in args.base]
    change = [json.loads(path.read_text()) for path in args.change]
    lines, problems = check(base, change)
    pythons = sorted({r["host"]["python"] for r in base + change})
    print(f"Python {', '.join(pythons)}")
    for line in lines:
        print(line)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
