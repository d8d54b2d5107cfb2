"""Per-layer numbers: a profiled pass, kernel counters and a registry.

The traced run adds two passes per workload.  One runs under the stdlib
C profiler with nothing attached, as users run the simulator; the other
runs with a :class:`~repro.obs.registry.MetricsRegistry` attached and
no profiler, for exact counts.  Kernel counters come from the untimed
side of every ordinary pass.

Self time comes from the profile: a layer's self time is the
sum of ``tottime`` over the functions defined in ``src/repro/<layer>/``
(``cluster.py`` and ``config.py`` form the ``cluster`` layer).  Time
spent in builtins, the stdlib, networkx, or repro modules outside the
layers is charged to the nearest calling layer by walking the profile's
caller edges, split in proportion to the time each caller edge carries.
This is how networkx's shortest-path time lands on ``net``.  Whatever
reaches no layer is reported as ``trace.unattributed_frac``.

cProfile adds a fixed cost to every Python call, which inflates layers
made of many small calls; use the fractions to rank layers, and the call
and registry counts (which are exact) to compare runs.
"""

from __future__ import annotations

import os
from typing import Any

__all__ = [
    "LAYERS", "layer_of", "attribute", "profile_metrics", "kernel_metrics",
    "registry_metrics",
]

LAYERS = (
    "sim", "net", "nic", "proto", "gm", "mcast", "trees", "host", "mpi",
    "coll", "workload", "scenario", "obs", "experiments", "cluster",
)

_CLUSTER_FILES = ("cluster.py", "config.py")


def layer_of(filename: str, root: str) -> str | None:
    """The layer defining *filename*, given the ``repro`` package *root*."""
    if not filename.startswith(root + os.sep):
        return None
    head, sep, _ = filename[len(root) + 1:].partition(os.sep)
    if not sep:
        return "cluster" if head in _CLUSTER_FILES else None
    return head if head in LAYERS else None


def attribute(
    stats: dict[tuple, tuple], root: str
) -> tuple[dict[str, float], dict[str, int], float]:
    """Split a ``pstats``-style table by layer.

    *stats* maps ``(file, line, name)`` to ``(cc, nc, tottime, cumtime,
    callers)`` with ``callers`` mapping a caller key to its edge tuple
    ``(cc, nc, tottime, cumtime)``.  Returns ``(self_time, calls,
    total_time)``: seconds of self time charged to each layer, calls of
    functions defined in each layer, and the table's total self time.
    """
    own = {func: layer_of(func[0], root) for func in stats}
    shares: dict[tuple, dict[str, float]] = {
        func: {layer: 1.0} if layer is not None else {}
        for func, layer in own.items()
    }
    # Each foreign function's share of a layer is the weighted mean of
    # its callers' shares (weights: the time each caller edge carries,
    # or its call count when no time was measured).  Recursion makes
    # this a fixed point, found by iterating until nothing moves.
    edges: dict[tuple, list[tuple[tuple, float]]] = {}
    for func, layer in own.items():
        if layer is not None:
            continue
        callers = [
            (c, edge) for c, edge in stats[func][4].items()
            if c in stats and c != func
        ]
        weights = [(c, edge[2]) for c, edge in callers]
        if sum(w for _, w in weights) <= 0:
            weights = [(c, float(edge[1])) for c, edge in callers]
        total = sum(w for _, w in weights)
        if total > 0:
            edges[func] = [(c, w / total) for c, w in weights if w > 0]
    for _ in range(200):
        moved = 0.0
        for func, weighted in edges.items():
            new: dict[str, float] = {}
            for caller, weight in weighted:
                for layer, share in shares[caller].items():
                    new[layer] = new.get(layer, 0.0) + share * weight
            old = shares[func]
            moved = max(moved, max(
                (abs(new.get(k, 0.0) - old.get(k, 0.0))
                 for k in new.keys() | old.keys()),
                default=0.0,
            ))
            shares[func] = new
        if moved < 1e-9:
            break

    self_time = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    total_time = 0.0
    for func, (_, nc, tt, _, _) in stats.items():
        total_time += tt
        if own[func] is not None:
            calls[own[func]] += nc
        for layer, share in shares[func].items():
            self_time[layer] += tt * share
    return self_time, calls, total_time


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def profile_metrics(
    stats: dict[tuple, tuple], root: str, ops: int
) -> dict[str, float]:
    """Self-time share and calls per operation of every layer."""
    self_time, calls, total = attribute(stats, root)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_frac"] = _ratio(self_time[layer], total)
        out[f"{layer}.calls_per_op"] = _ratio(calls[layer], ops)
    out["trace.unattributed_frac"] = max(
        0.0, 1.0 - _ratio(sum(self_time.values()), total)
    )
    return out


def kernel_metrics(kernel: dict[str, int], ops: int) -> dict[str, float]:
    """Exact work counts from ``repro.perf.KERNEL_COUNTERS``."""
    events = kernel["events"]
    return {
        "sim.events_per_op": _ratio(events, ops),
        "sim.batched_frac": _ratio(kernel["batched_events"], events),
        "sim.wheel_armed_per_op": _ratio(kernel["wheel_armed"], ops),
        "sim.wheel_cancel_frac": _ratio(
            kernel["wheel_cancelled"], kernel["wheel_armed"]
        ),
        "sim.simulators": kernel["simulators"],
        "proto.timers_armed_per_op": _ratio(kernel["timers_armed"], ops),
        "proto.timer_stale_frac": _ratio(
            kernel["timer_stale_fires"], kernel["timer_fires"]
        ),
    }


def registry_metrics(registry: Any, ops: int) -> dict[str, float]:
    """Exact counts, waits and high-water marks from a metrics registry."""

    def value(name: str) -> float:
        return registry.value(name, 0)

    def hist(name: str, q: float | None = None) -> float:
        inst = registry.get(name)
        if inst is None or not inst.count:
            return 0.0
        return inst.percentile(q) if q is not None else inst.mean

    def gauge_max(name: str) -> float:
        inst = registry.get(name)
        return inst.max_value if inst is not None else 0.0

    drops = value("net.fault_drops") + value("net.failure_drops")
    return {
        "net.packets_per_op": _ratio(value("net.packets_delivered"), ops),
        "net.link_bytes_per_op": _ratio(value("net.link_bytes"), ops),
        "net.queue_wait_us_mean": hist("net.queue_wait_us"),
        # bucketed: the upper bound of the bucket holding p99
        "net.queue_wait_us_p99": hist("net.queue_wait_us", 0.99),
        "net.fault_drops": value("net.fault_drops"),
        "net.failure_drops": value("net.failure_drops"),
        "nic.send_buffers_max": gauge_max("nic.send_buffers_in_use"),
        "nic.recv_buffers_max": gauge_max("nic.recv_buffers_in_use"),
        "nic.rx_overruns": value("nic.rx_overruns"),
        "nic.tx_service_us_mean": hist("nic.tx_service_us"),
        "nic.forward_service_us_mean": hist("nic.forward_service_us"),
        "proto.retransmit_timeouts": value("proto.retransmit_timeouts"),
        "proto.nack_sent": value("proto.nack_sent"),
        "proto.nack_suppressed": value("proto.nack_suppressed"),
        "proto.fec_parity_sent": value("proto.fec_parity_sent"),
        "proto.fec_useful_frac": _ratio(
            value("proto.fec_repairs"), value("proto.fec_parity_sent")
        ),
        # gm.protocol tallies GM unicast retransmissions as
        # proto.retransmits; multicast ones are mcast.retransmit_packets.
        "gm.retransmits_per_op": _ratio(value("proto.retransmits"), ops),
        "gm.drops": sum(
            value(n) for n in registry.names() if n.startswith("gm.drops.")
        ),
        "mcast.retransmit_packets_per_op": _ratio(
            value("mcast.retransmit_packets"), ops
        ),
        "mcast.repair_packets_per_drop": _ratio(
            value("mcast.retransmit_packets"), drops
        ),
        "mcast.dup_drops": value("mcast.drops.duplicate"),
        "mcast.laggard_resends": value("mcast.laggard_resends"),
    }
