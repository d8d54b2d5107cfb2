#!/usr/bin/env python
"""Check benchmark smoke runs' wall times against their ceilings.

usage: python tools/check_wall_ceilings.py REPORT_JSON [REPORT_JSON ...]

Run it after three ``python -m bench --smoke -o REPORT_JSON`` runs.
For every workload, the median of the runs' ``wall_s`` must stay at or
below its ceiling: the reference median in
``results/bench_smoke_wall.json`` divided by ``factor`` (0.70), so a
workload may run at most 1/0.70 = 1.43 times slower than the
reference.  The reference is the median of ten smoke runs on the host
and Python that file names; CI runs this check on that Python, because
other versions run the smoke at a different speed.  One smoke run is
one pass per workload, and single passes on a shared host spread by up
to 1.5 times, hence the median of three.

The ceilings catch a slowdown of the whole run.  A slowdown confined to
one layer shows only in proportion to that layer's share of the wall
time; ``tools/check_exact_counts.py`` catches added work exactly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median

REFERENCE = Path(__file__).resolve().parent.parent / "results" / "bench_smoke_wall.json"


def check(reports: list[dict], reference: dict) -> tuple[list[str], list[str]]:
    """(one line per workload, the lines of workloads over their ceiling)."""
    lines, problems = [], []
    if not all(report.get("smoke") for report in reports):
        return lines, ["a report is not a --smoke run"]
    factor = reference["factor"]
    for name, ref in sorted(reference["wall_s"].items()):
        walls = [
            report["workloads"][name]["metrics"]["wall_s"]["value"]
            for report in reports
            if name in report["workloads"]
        ]
        if len(walls) != len(reports):
            problems.append(f"{name}: missing from a report")
            continue
        ceiling = ref / factor
        line = (
            f"{name}: median wall_s {median(walls):.3f} s over {len(walls)} "
            f"runs, ceiling {ceiling:.3f} s (reference {ref:.3f} s / {factor})"
        )
        lines.append(line)
        if median(walls) > ceiling:
            problems.append(line)
    return lines, problems


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    reports = [json.loads(Path(arg).read_text()) for arg in argv]
    reference = json.loads(REFERENCE.read_text())
    lines, problems = check(reports, reference)
    pythons = sorted({r["host"]["python"] for r in reports})
    print(
        f"Python {', '.join(pythons)}; reference measured on Python "
        f"{reference['python']}"
    )
    for line in lines:
        print(line)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
