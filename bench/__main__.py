"""Command line: ``python -m bench`` (run) and ``python -m bench compare``.

Usage::

    python -m bench                              # every workload, 15 s each
    python -m bench --workload clos256 --seed 5 --seconds 15
    python -m bench --workload serving16_all_schemes  # fails today
    python -m bench --trace                      # + one profiled pass each
    python -m bench --smoke                      # one short pass each
    python -m bench compare BASE.json NEW.json   # verdict per metric

The last line printed is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace``
the per-layer ones).  The full report, with quartiles, per-pass samples
and checks, goes to ``--output``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        from bench.compare import main as compare_main

        return compare_main(argv[1:])

    from bench.run import ROOT, BenchError, render, run, summary_line

    parser = argparse.ArgumentParser(prog="python -m bench")
    parser.add_argument(
        "--workload", action="append", default=None,
        help="workload to run (repeatable; default: every workload of "
        "BENCHMARK.json, that is every one but the known-failing ones)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="seed for every workload's inputs (default: each one's own)",
    )
    parser.add_argument(
        "--seconds", type=float, default=15.0,
        help="time budget for the timed passes of the run",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="also run one profiled pass per workload and report "
        "per-layer metrics",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="one pass per workload at about a tenth of its work",
    )
    parser.add_argument(
        "-o", "--output", type=Path, default=ROOT / "bench" / "out" / "report.json",
        help="where to write the full JSON report (a traced run also "
        "writes one <workload>.pstats beside it)",
    )
    args = parser.parse_args(argv)
    from bench.workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    output = args.output.resolve()
    try:
        report = run(
            names, output.parent, seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace), smoke=args.smoke,
        )
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    output.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(render(report))
    print(f"report: {output} ({report['elapsed_s']:.1f}s)")
    print(json.dumps(summary_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
