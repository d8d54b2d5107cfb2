"""Every metric the benchmark reports: name, unit, direction, bound.

``BENCHMARK.json`` at the repository root lists the same metrics for
the harness that runs the benchmark; a test keeps the two identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from bench.layers import LAYERS

__all__ = ["Metric", "END_TO_END", "PER_LAYER", "DETERMINISTIC", "by_name"]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  #: "lower" or "higher"
    #: share of the baseline median by which the metric may worsen
    #: before it counts as a regression (end-to-end metrics only)
    bound: float | None = None


#: What a user of the simulator sees.  Host times and memory are medians
#: over the passes of a run.  The delivery quantiles are simulated time
#: over the deliveries of all the run's inputs: the same seed and
#: ``--seconds`` always give the same values.
END_TO_END = (
    Metric("wall_s", "s", "lower", 0.24),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.12),
    Metric("delivery_p50_us", "us", "lower", 0.12),
    Metric("delivery_p99_us", "us", "lower", 0.15),
)

#: Simulated results: they change only when the model does.
DETERMINISTIC = frozenset({"delivery_p50_us", "delivery_p99_us"})

_COUNTS = (
    # (name, unit, better)
    ("sim.events_per_op", "events/op", "lower"),
    ("sim.batched_frac", "fraction", "higher"),
    ("sim.wheel_armed_per_op", "timers/op", "lower"),
    ("sim.wheel_cancel_frac", "fraction", "higher"),
    ("sim.simulators", "count", "lower"),
    ("net.packets_per_op", "packets/op", "lower"),
    ("net.link_bytes_per_op", "bytes/op", "lower"),
    ("net.queue_wait_us_mean", "us", "lower"),
    ("net.queue_wait_us_p99", "us", "lower"),
    ("net.fault_drops", "count", "lower"),
    ("net.failure_drops", "count", "lower"),
    ("nic.send_buffers_max", "count", "lower"),
    ("nic.recv_buffers_max", "count", "lower"),
    ("nic.rx_overruns", "count", "lower"),
    ("nic.tx_service_us_mean", "us", "lower"),
    ("nic.forward_service_us_mean", "us", "lower"),
    ("proto.timers_armed_per_op", "timers/op", "lower"),
    ("proto.timer_stale_frac", "fraction", "lower"),
    ("proto.retransmit_timeouts", "count", "lower"),
    ("proto.nack_sent", "count", "lower"),
    ("proto.nack_suppressed", "count", "higher"),
    ("proto.fec_parity_sent", "count", "lower"),
    ("proto.fec_useful_frac", "fraction", "higher"),
    ("gm.retransmits_per_op", "packets/op", "lower"),
    ("gm.drops", "count", "lower"),
    ("mcast.retransmit_packets_per_op", "packets/op", "lower"),
    ("mcast.repair_packets_per_drop", "packets/drop", "lower"),
    ("mcast.dup_drops", "count", "lower"),
    ("mcast.laggard_resends", "count", "lower"),
    ("obs.attached_overhead_frac", "fraction", "lower"),
    ("workload.backlog_msgs", "count", "lower"),
    ("trace.unattributed_frac", "fraction", "lower"),
    ("trace.overhead_x", "x", "lower"),
)

#: One traced pass per workload: self-time share and calls per op of
#: every layer, then the exact counts.
PER_LAYER = tuple(
    Metric(f"{layer}.{kind}", unit, "lower")
    for layer in LAYERS
    for kind, unit in (("self_frac", "fraction"), ("calls_per_op", "calls/op"))
) + tuple(Metric(name, unit, better) for name, unit, better in _COUNTS)


def by_name() -> dict[str, Metric]:
    return {m.name: m for m in END_TO_END + PER_LAYER}
