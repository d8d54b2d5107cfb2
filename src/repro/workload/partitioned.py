"""Partitioned serving: the sustained-traffic workload on shards.

One :class:`~repro.workload.serving.TrafficEngine` per shard, each
spawning only the programs whose node lives on that shard (the roots'
arrival RNG streams are named per group, so schedules are identical to
serial wherever the root lands).  The shards advance through the
conservative safe-window conductor (:mod:`repro.sim.parallel`), and the
per-shard :class:`ServingStats` merge into one serial-equivalent
snapshot.

What partitioning preserves exactly: every count, and therefore every
rate the snapshot reports — and the result is invariant across shard
counts.  What it does not promise to reproduce from the *serial* run:
the order of ``latencies_us`` (concatenated in shard order; quantiles
sort), and serial's same-instant tie order on contended links — two walks
claiming one channel in the same simulated instant are granted in
per-shard scheduling order, not serial's global order, so a tie swap
shifts the two latencies by one serialization time (and can add a
counted grant event to ``sim_events``).  Tie-free workloads — the
golden trace, the fig-3 sweep, the smoke-scale serving tests — replay
serial byte-identically; on the 256-node long-cable workload of
``tests/sim/test_parallel_golden.py`` only the counts and quantiles are
compared with serial.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.scenario.partition import build_shard, make_plan
from repro.scenario.spec import ScenarioSpec
from repro.sim.parallel import ShardSet, merge_flight_events
from repro.workload.serving import ServingStats, TrafficEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.parallel import PartitionPlan

__all__ = ["merge_serving_stats", "run_serving_partitioned"]


def merge_serving_stats(shard_stats: list[ServingStats]) -> ServingStats:
    """One serial-equivalent :class:`ServingStats` from per-shard stats."""
    first = shard_stats[0]
    merged = ServingStats(
        duration_us=first.duration_us,
        warmup_us=first.warmup_us,
        n_groups=first.n_groups,
    )
    for stats in shard_stats:
        merged.msgs_posted += stats.msgs_posted
        merged.msgs_delivered += stats.msgs_delivered
        merged.churn_events += stats.churn_events
        merged.sim_events += stats.sim_events
        merged.latencies_us.extend(stats.latencies_us)
        for gid, gs in stats.per_group.items():
            into = merged.per_group.get(gid)
            if into is None:
                merged.per_group[gid] = into = type(gs)(scheme=gs.scheme)
            into.posted += gs.posted
            into.delivered += gs.delivered
            into.churn_epochs += gs.churn_epochs
            into.sum_delivery_us += gs.sum_delivery_us
            if gs.max_delivery_us > into.max_delivery_us:
                into.max_delivery_us = gs.max_delivery_us
    return merged


class _ServingShard:
    """One shard's engine, shaped for the conductor."""

    def __init__(
        self,
        spec: ScenarioSpec,
        plan: "PartitionPlan",
        shard_id: int,
        registry: Any = None,
        flight: Any = None,
    ):
        cluster = build_shard(spec, plan, shard_id, registry, flight=flight)
        self.engine = TrafficEngine(spec, registry=registry, cluster=cluster)
        self.sim = cluster.sim
        self.network = cluster.network
        self.engine.start()


def run_serving_partitioned(
    spec: ScenarioSpec, registry: Any = None, flight: Any = None
) -> ServingStats:
    """Run a partitioned serving scenario; serial-equivalent stats.

    *registry* is shared by every shard simulator, so instrument
    updates land merged by construction.  ``flight`` (a
    :class:`repro.obs.flight.FlightRecorder`-shaped object) is forked
    per shard and the shard streams merged back in global time order
    afterwards.
    """
    plan = make_plan(spec)
    shards = [
        _ServingShard(
            spec, plan, sid, registry=registry,
            flight=flight.fork() if flight is not None else None,
        )
        for sid in range(plan.n_shards)
    ]
    ShardSet(
        plan,
        [s.sim for s in shards],
        [s.network for s in shards],
    ).run(until=spec.traffic.duration_us)
    shard_stats = [s.engine.finalize() for s in shards]
    if flight is not None:
        flight.absorb(merge_flight_events([s.sim for s in shards]))
    merged = merge_serving_stats(shard_stats)
    if registry is not None:
        # Re-stamp the end-of-run gauges with the merged (global) rates;
        # each shard's finalize only saw its own slice.
        registry.set_gauge(
            "serving.delivered_msgs_per_sec", merged.delivered_msgs_per_sec
        )
        registry.set_gauge(
            "serving.sim_events_per_us", merged.sim_events_per_us
        )
    return merged
