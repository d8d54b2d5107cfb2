"""One pass in a fresh interpreter, the way a CLI user runs it.

The runner starts this module once per pass and reads one JSON object
from its last output line.  Set-up time runs from the moment the runner
started the process (``--spawned-at``, a ``time.perf_counter`` reading,
which is system-wide on Linux) until imports, the input build and one
``Cluster`` construction are done; the pass is timed on its own.

``--profile PSTATS`` runs the pass under cProfile and adds the per-layer
self time; ``--registry`` attaches a metrics registry and adds its
counts.  Either makes the pass's timings unfit for the end-to-end
numbers, so the runner uses such passes for per-layer metrics only.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--input", type=int, default=0,
                        help="which of the seed's input sets to run")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--profile", metavar="PSTATS", default=None)
    mode.add_argument("--registry", action="store_true")
    args = parser.parse_args(argv)

    import repro
    from repro.perf import KERNEL_COUNTERS

    from bench.passes import prepare, run_pass
    from bench.workloads import ALL_WORKLOADS

    workload = ALL_WORKLOADS[args.workload]
    inputs = prepare(workload, args.seed, args.input, args.smoke)
    setup_s = time.perf_counter() - args.spawned_at

    registry = profiler = None
    if args.registry:
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
    gc.collect()
    KERNEL_COUNTERS.reset()
    if profiler is not None:
        profiler.enable()
    started = time.perf_counter()
    result = run_pass(workload, inputs, registry)
    wall_s = time.perf_counter() - started
    if profiler is not None:
        profiler.disable()

    out = {
        "input": args.input,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "latencies_us": result.latencies_us,
        "ops": result.ops,
        "ops_failed": result.failed,
        "failures": result.failures[:20],
        "fingerprint": result.fingerprint,
        "observable": result.observable,
        "kernel": KERNEL_COUNTERS.snapshot(),
    }
    if profiler is not None:
        import os
        import pstats

        from bench.layers import profile_metrics

        profiler.dump_stats(args.profile)
        out["layers"] = profile_metrics(
            pstats.Stats(profiler).stats,  # type: ignore[attr-defined]
            os.path.dirname(os.path.abspath(repro.__file__)),
            result.ops,
        )
    if registry is not None:
        from bench.layers import registry_metrics

        out["layers"] = registry_metrics(registry, result.ops)
        out["layers"]["workload.backlog_msgs"] = result.backlog_msgs
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
