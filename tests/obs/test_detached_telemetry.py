"""Declaring telemetry without attaching a recorder changes nothing.

A :class:`~repro.scenario.spec.TelemetrySpec` on a spec is data: with
no flight recorder or time-series sampler attached, every
instrumentation site stays one attribute check.  The run must produce
the same stats snapshot, the same kernel work counts and the same
number of calls into every layer as the run without the declaration.
"""

import cProfile
import dataclasses
import pstats
from collections import Counter
from pathlib import Path

import repro
import repro.workload  # noqa: F401  (registers the serving runner)
from repro.perf import KERNEL_COUNTERS
from repro.scenario import Harness, TrafficSpec, serving_point
from repro.scenario.spec import TelemetrySpec

SRC = Path(repro.__file__).resolve().parent


def _serving_smoke_spec():
    """16 nodes, 8 groups of 6 over all four sustained schemes, churn."""
    return serving_point(
        n_nodes=16,
        traffic=TrafficSpec(
            duration_us=10_000.0,
            n_groups=8,
            group_size=6,
            rate_per_group=1 / 2_000.0,
            sizes=(8_192, 32_768),
            schemes=(
                "nic_based", "nic_multisend", "host_based", "nic_assisted",
            ),
            churn_interval_us=5_000.0,
            warmup_us=2_000.0,
        ),
        seed=11,
        name="serving16-smoke",
    )


def _layer(filename):
    """The ``repro`` package (or top-level module) *filename* is in."""
    try:
        rel = Path(filename).resolve().relative_to(SRC)
    except ValueError:
        return None
    return rel.parts[0] if len(rel.parts) > 1 else rel.stem


def _profiled_run(spec):
    """Stats snapshot, kernel counters and calls per layer of one run."""
    KERNEL_COUNTERS.reset()
    profiler = cProfile.Profile()
    profiler.enable()
    stats = Harness(spec).run().values[0]
    profiler.disable()
    calls = Counter()
    for (filename, _line, _func), row in pstats.Stats(profiler).stats.items():
        layer = _layer(filename)
        if layer is not None:
            calls[layer] += row[1]
    return stats.snapshot(), KERNEL_COUNTERS.snapshot(), dict(calls)


def test_declared_telemetry_without_recorders_changes_nothing():
    spec = _serving_smoke_spec()
    declared = dataclasses.replace(
        spec,
        measurement=dataclasses.replace(
            spec.measurement,
            telemetry=TelemetrySpec(sample=1.0, interval_us=1_000.0),
        ),
    )
    # The first run in a process does one-time lazy set-up, which
    # shows in the call counts (a few more mcast and coll calls).
    Harness(spec).run()
    plain_stats, plain_kernel, plain_calls = _profiled_run(spec)
    stats, kernel, calls = _profiled_run(declared)
    assert plain_stats["msgs_delivered"] > 0
    assert stats == plain_stats
    assert kernel == plain_kernel
    assert calls == plain_calls
    assert {"sim", "net", "nic", "mcast", "workload"} <= set(calls)
