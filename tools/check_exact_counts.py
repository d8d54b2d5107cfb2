#!/usr/bin/env python
"""Check a traced benchmark smoke run's work counts against their pins.

usage: python tools/check_exact_counts.py REPORT_JSON

Run it after ``python -m bench --smoke --trace 1 -o REPORT_JSON``.
Every per-layer row of every workload must equal
``results/bench_smoke_counts.json`` exactly, except the rows that
measure host time: ``*.self_frac``, ``*.calls_per_op``, ``trace.*`` and
``obs.attached_overhead_frac``.  What is left are deterministic counts
and simulated quantities (events, batched and wheel fractions, packets
and bytes per operation, queue waits, drops, repair work), so one extra
event per packet, or one packet fewer, fails the check.  CI runs it on
every Python version the tests run on.

To pin a deliberate change, write :func:`exact_rows` of a fresh traced
smoke run to that file as indented JSON, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

PINNED = Path(__file__).resolve().parent.parent / "results" / "bench_smoke_counts.json"

#: Per-layer rows that measure host time, not work.
HOST_TIME_SUFFIXES = (".self_frac", ".calls_per_op")
HOST_TIME_ROWS = ("obs.attached_overhead_frac",)


def exact_rows(report: dict) -> dict[str, float]:
    """``"<workload>:<row>"`` -> value, for every row compared exactly."""
    rows = {}
    for workload, result in sorted(report["workloads"].items()):
        for name, row in sorted(result["layers"].items()):
            if (
                name.endswith(HOST_TIME_SUFFIXES)
                or name.startswith("trace.")
                or name in HOST_TIME_ROWS
            ):
                continue
            rows[f"{workload}:{name}"] = row["value"]
    return rows


def check(report: dict, pinned: dict[str, float]) -> list[str]:
    """The rows where the run and the pins differ."""
    if not report.get("trace"):
        return ["report has no per-layer rows: run with --trace 1"]
    have = exact_rows(report)
    return [
        f"{key}: {have.get(key, 'missing')} != pinned {pinned.get(key, 'missing')}"
        for key in sorted(set(have) | set(pinned))
        if have.get(key) != pinned.get(key)
    ]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    report = json.loads(Path(argv[0]).read_text())
    pinned = json.loads(PINNED.read_text())
    problems = check(report, pinned)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(
        f"{len(pinned)} per-layer rows match "
        f"{PINNED.relative_to(PINNED.parents[1])}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
