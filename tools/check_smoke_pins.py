#!/usr/bin/env python
"""Check a benchmark smoke run against its pinned simulated outputs.

usage: python tools/check_smoke_pins.py STDOUT_TXT REPORT_JSON

Run it after ``python -m bench --smoke -o REPORT_JSON > STDOUT_TXT``.
The last line of STDOUT_TXT must say ``"correct": true``, and every
workload's ``ops``, ``ops_failed``, ``delivery_p50_us`` and
``delivery_p99_us`` in REPORT_JSON must equal
``results/bench_smoke_outputs.json`` exactly.  The simulated outputs
are deterministic, so any change to them is a behaviour change; CI
runs this on every Python version the tests run on.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

PINNED = Path(__file__).resolve().parent.parent / "results" / "bench_smoke_outputs.json"


def check(stdout_lines: list[str], report: dict, pinned: dict) -> list[str]:
    """The mismatches between one smoke run and the pinned outputs."""
    problems = []
    summary = json.loads(stdout_lines[-1])
    if summary["correct"] is not True:
        problems.append(f"smoke run not correct: {summary}")
    workloads = report["workloads"]
    if sorted(workloads) != sorted(pinned):
        problems.append(
            f"workloads differ: {sorted(workloads)} != {sorted(pinned)}"
        )
        return problems
    for name, want in pinned.items():
        got = workloads[name]
        have = {
            "ops": got["ops"],
            "ops_failed": got["ops_failed"],
            "delivery_p50_us": got["metrics"]["delivery_p50_us"]["value"],
            "delivery_p99_us": got["metrics"]["delivery_p99_us"]["value"],
        }
        if have != want:
            problems.append(f"{name}: {have} != pinned {want}")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    stdout_lines = Path(argv[0]).read_text().splitlines()
    report = json.loads(Path(argv[1]).read_text())
    problems = check(stdout_lines, report, json.loads(PINNED.read_text()))
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(f"smoke outputs match {PINNED.relative_to(PINNED.parents[1])}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
