"""Protocol-health reports: run a scheme under observation, summarize.

:func:`run_observed` drives any scheme from the
:mod:`repro.mcast.schemes` registry exactly as the experiment harness
does — same cluster construction, same default spanning tree — but with
a :class:`~repro.obs.registry.MetricsRegistry` attached to the
simulator (and optionally the tracer enabled for a Chrome-trace
export).  :func:`build_health_report` and :func:`render_health_report`
then turn one run per scheme into the machine-readable JSON and the
text tables the ``python -m repro.obs`` CLI prints.

Every scheme's report carries the same three protocol sections, zero or
not, so reports diff cleanly across schemes and runs:

``retransmits``
    ``proto.retransmits`` (Go-back-N resends), ``mcast.laggard_resends``
    (per-child selective resends), and the timer counters folded in
    from :mod:`repro.proto.timer` (``proto.timers_*``);
``ack_latency``
    the ``proto.ack_latency_us`` histogram (post → cumulative-ack
    arrival per window record);
``drops``
    every ``*.drops.*`` counter (duplicates, out-of-order,
    unknown-group, no-token) plus ``net.fault_drops`` — injected losses
    tallied where the fault model drops them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.gm.params import GMCostModel
from repro.mcast.schemes import available_schemes, get_scheme
from repro.obs.registry import MetricsRegistry
from repro.trees import build_tree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.fault import LossModel

__all__ = [
    "ObservedRun",
    "run_observed",
    "reliability_section",
    "resilience_section",
    "serving_section",
    "build_health_report",
    "render_health_report",
]

#: Counters summed into each report's ``retransmits`` section.
RETRANSMIT_COUNTERS = (
    "proto.retransmits",
    "mcast.laggard_resends",
    "proto.timers_armed",
    "proto.timer_fires",
    "proto.timer_stale_fires",
)

#: The ack-latency histogram every reliability binding feeds.
ACK_LATENCY_METRIC = "proto.ack_latency_us"

#: Counters folded into the serving section (sustained-traffic runs).
SERVING_COUNTERS = (
    "serving.msgs_posted",
    "serving.msgs_delivered",
    "serving.churn_scheduled",
    "serving.churn_applied",
)

#: Counters folded into the resilience section (failure-injected runs).
RESILIENCE_COUNTERS = (
    "net.failures.link_down",
    "net.failures.link_up",
    "net.failures.switch_down",
    "net.failures.switch_up",
    "net.failure_drops",
    "mcast.recovery.tree_switches",
    "mcast.recovery.repairs",
    "mcast.recovery.regrafts",
    "mcast.recovery.replays",
    "mcast.recovery.replay_kicks",
)


#: Counters folded into the reliability section (NACK/FEC engine runs).
RELIABILITY_COUNTERS = (
    "proto.nack_sent",
    "proto.nack_repairs",
    "proto.nack_suppressed",
    "proto.fec_parity_sent",
    "proto.fec_repairs",
    "proto.fec_insufficient",
    "proto.retransmit_timeouts",
    "mcast.retransmit_packets",
)


def reliability_section(registry: MetricsRegistry) -> dict[str, Any] | None:
    """The reliability-engine section of a health report.

    Built from the ``proto.nack_*`` / ``proto.fec_*`` instruments the
    :mod:`repro.proto.engines` families feed; returns ``None`` when the
    observed run used only the ack-window family and no retransmit
    timer fired, so prior reports keep their exact shape.
    """
    names = registry.names()
    if not any(
        name.startswith(("proto.nack_", "proto.fec_"))
        or name == "proto.retransmit_timeouts"
        for name in names
    ):
        return None
    return {name: registry.value(name) for name in RELIABILITY_COUNTERS}


def resilience_section(registry: MetricsRegistry) -> dict[str, Any] | None:
    """The failure/recovery section of a health report.

    Built from the ``net.failures.*`` instruments the
    :class:`~repro.net.failure.FailureInjector` feeds and the
    ``mcast.recovery.*`` instruments the self-healing schemes feed;
    returns ``None`` when the observed run injected no failures, so
    failure-free reports keep their exact prior shape.
    """
    names = registry.names()
    if not any(
        name.startswith(("net.failures.", "mcast.recovery."))
        for name in names
    ):
        return None
    section: dict[str, Any] = {
        name: registry.value(name) for name in RESILIENCE_COUNTERS
    }
    gap = registry.get("mcast.broadcast.delivery_gap_us")
    if gap is not None:
        snap = gap.snapshot()
        section["delivery_gap_us"] = {
            key: snap[key] for key in ("count", "mean", "p50", "p99", "max")
        }
    return section


def serving_section(registry: MetricsRegistry) -> dict[str, Any] | None:
    """The serving-workload section of a health report.

    Built from the ``serving.*`` instruments the
    :class:`~repro.workload.serving.TrafficEngine` feeds through the
    duck-typed ``sim.metrics`` slot; returns ``None`` when the observed
    run carried no sustained traffic (one-shot scheme runs), so
    one-shot reports keep their exact prior shape.
    """
    if not any(name.startswith("serving.") for name in registry.names()):
        return None
    section: dict[str, Any] = {
        name: registry.value(name) for name in SERVING_COUNTERS
    }
    section["delivered_msgs_per_sec"] = registry.value(
        "serving.delivered_msgs_per_sec", 0.0
    )
    delivery = registry.get("serving.delivery_us")
    if delivery is not None:
        snap = delivery.snapshot()
        section["delivery_us"] = {
            key: snap[key] for key in ("count", "mean", "p50", "p99", "max")
        }
    return section


@dataclass
class ObservedRun:
    """One scheme driven once with metrics (and optionally trace) on."""

    scheme: str
    nodes: int
    size: int
    seed: int
    registry: MetricsRegistry
    #: per-node delivery info from ``BoundScheme.run_once``
    delivered: dict[int, Any]
    #: simulated end time of the run, µs
    sim_time_us: float
    #: the simulator's tracer (records populated only when trace=True)
    tracer: Any = None
    #: the run's flight recorder (attached when flight=True)
    flight: Any = None
    notes: list[str] = field(default_factory=list)


def run_observed(
    scheme: str,
    nodes: int = 8,
    size: int = 4096,
    seed: int = 0,
    loss: "LossModel | None" = None,
    trace: bool = False,
    registry: MetricsRegistry | None = None,
    flight: bool = False,
) -> ObservedRun:
    """Run *scheme* once on an *nodes*-node cluster, observed.

    The registry is attached directly to the run's own simulator
    (``cluster.sim.metrics``), so observation never leaks across runs
    and the process-global default stays untouched.  ``flight=True``
    additionally attaches a full-sampling
    :class:`~repro.obs.flight.FlightRecorder` (``run.flight``), whose
    gauge samples feed the Chrome trace's counter tracks.  The run's
    cluster is closed before this returns.
    """
    spec = get_scheme(scheme)
    cost = GMCostModel()
    with Cluster(
        ClusterConfig(n_nodes=nodes, cost=cost, seed=seed, trace=trace),
        loss=loss,
    ) as cluster:
        registry = registry if registry is not None else MetricsRegistry()
        cluster.sim.metrics = registry
        recorder = None
        if flight:
            from repro.obs.flight import FlightRecorder

            recorder = FlightRecorder(sample=1.0)
            cluster.sim.flight = recorder

        dests = list(range(1, nodes))
        if spec.tree_uses_cost:
            tree = build_tree(0, dests, shape=spec.default_tree,
                              cost=cost, size=size)
        else:
            tree = build_tree(0, dests, shape=spec.default_tree)
        bound = spec.cls(spec, cluster, tree)
        result = bound.run_once(size)

        return ObservedRun(
            scheme=scheme,
            nodes=nodes,
            size=size,
            seed=seed,
            registry=registry,
            delivered=dict(result.get("delivered", {})),
            sim_time_us=cluster.now,
            tracer=cluster.sim.trace,
            flight=recorder,
        )


def _drop_counters(registry: MetricsRegistry) -> dict[str, int]:
    """Every drop tally in the registry, by name."""
    out: dict[str, int] = {}
    for name in registry.names():
        if ".drops." in name or name == "net.fault_drops":
            out[name] = registry.value(name)
    return out


def _scheme_report(run: ObservedRun) -> dict[str, Any]:
    reg = run.registry
    ack = reg.get(ACK_LATENCY_METRIC)
    ack_snapshot = (
        ack.snapshot() if ack is not None
        else {"type": "histogram", "count": 0, "sum": 0.0, "mean": 0.0,
              "min": None, "max": None, "p50": 0.0, "p99": 0.0,
              "buckets": {}}
    )
    report = {
        "scheme": run.scheme,
        "title": get_scheme(run.scheme).title,
        "nodes": run.nodes,
        "size": run.size,
        "seed": run.seed,
        "sim_time_us": round(run.sim_time_us, 6),
        "delivered": len(run.delivered),
        "retransmits": {
            name: reg.value(name) for name in RETRANSMIT_COUNTERS
        },
        "ack_latency": ack_snapshot,
        "drops": _drop_counters(reg),
        "metrics": reg.snapshot(),
    }
    serving = serving_section(reg)
    if serving is not None:
        report["serving"] = serving
    resilience = resilience_section(reg)
    if resilience is not None:
        report["resilience"] = resilience
    reliability = reliability_section(reg)
    if reliability is not None:
        report["reliability"] = reliability
    return report


def build_health_report(runs: list[ObservedRun]) -> dict[str, Any]:
    """Machine-readable health report for a batch of observed runs."""
    return {
        "report": "repro.obs health",
        "schemes_available": list(available_schemes()),
        "runs": [_scheme_report(run) for run in runs],
    }


def render_health_report(runs: list[ObservedRun]) -> str:
    """The text report: an overview table plus one section per scheme."""
    from repro.experiments.report import render_table

    out = ["# Protocol health report", ""]
    headers = ["scheme", "nodes", "size", "sim_us", "delivered",
               "retransmits", "acks", "drops"]
    rows = []
    for run in runs:
        rep = _scheme_report(run)
        rows.append([
            run.scheme,
            str(run.nodes),
            str(run.size),
            f"{run.sim_time_us:.1f}",
            str(rep["delivered"]),
            str(rep["retransmits"]["proto.retransmits"]
                + rep["retransmits"]["mcast.laggard_resends"]),
            str(rep["ack_latency"]["count"]),
            str(sum(rep["drops"].values())),
        ])
    out.append(render_table(headers, rows))

    for run in runs:
        rep = _scheme_report(run)
        out += ["", f"## {run.scheme}: {rep['title']}", ""]
        out.append("retransmits:")
        out.append(render_table(
            ["counter", "value"],
            [[name, str(value)]
             for name, value in rep["retransmits"].items()],
        ))
        out.append("")
        ack = rep["ack_latency"]
        out.append("ack latency (us):")
        out.append(render_table(
            ["count", "mean", "p50", "p99", "max"],
            [[str(ack["count"]), f"{ack['mean']:.2f}", f"{ack['p50']:g}",
              f"{ack['p99']:g}",
              "-" if ack["max"] is None else f"{ack['max']:.2f}"]],
        ))
        out.append("")
        out.append("drops:")
        drops = rep["drops"]
        if drops:
            out.append(render_table(
                ["counter", "value"],
                [[name, str(value)] for name, value in sorted(drops.items())],
            ))
        else:
            out.append("  (none recorded)")
    return "\n".join(out)
