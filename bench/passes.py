"""Inputs from a seed, one timed pass, and the checks on its output.

Everything random about a workload comes from the seed: arrival times,
message sizes, link outages, and the ``ClusterConfig.seed`` that drives
loss, churn and skew draws.  The simulator receives only the generated
inputs, through public APIs: the scenario point builders and
:class:`~repro.scenario.Harness`, the serving runner that
:mod:`repro.workload` registers, the :mod:`repro.obs` recorders and
:class:`~repro.cluster.Cluster`.

Serving runs stop posting ``drain_us`` before the end, so a correct run
delivers every posted message to every member exactly once: expected
deliveries are ``posted * group_size``, and both missing and extra
deliveries count as failed operations.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any

import repro.workload  # noqa: F401  (registers the serving runner)
from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.gm.params import GMCostModel
from repro.net.failure import FailureEvent, FailureSpec
from repro.net.fault import LossSpec
from repro.obs.flight import FlightRecorder
from repro.obs.registry import MetricsRegistry
from repro.obs.timeseries import TimeSeriesRecorder
from repro.scenario import (
    Harness,
    ScenarioSpec,
    TrafficSpec,
    broadcast_point,
    mpi_bcast_point,
    serving_point,
    skew_point,
)

from bench.workloads import Serving, Workload

__all__ = ["Pass", "prepare", "run_pass", "digest"]


def digest(value: Any) -> str:
    """A short stable hash of a JSON-able value (the determinism probe)."""
    payload = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _size(rng: random.Random, size: int, stratum: int = 0, strata: int = 1) -> int:
    """A message size in stratum *stratum* of *strata* within 1/16 of *size*.

    A continuous jitter keeps the latency quantiles from collapsing onto
    values that every seed shares; stratified draws keep the bytes moved
    nearly the same for every seed.
    """
    width = size / 8
    return int(size - width / 2 + width * (stratum + rng.random()) / strata)


@dataclass
class Pass:
    """What one timed pass produced (everything but the clock)."""

    ops: int
    failed: int
    latencies_us: list[float]
    #: hash of the whole output, compared across the passes of one run
    fingerprint: str
    #: hash of the output without what an attached sampler moves (its
    #: own kernel events), compared against the reference workload
    observable: str
    #: messages due but not yet posted when arrivals stopped (serving;
    #: measured only when a registry is attached)
    backlog_msgs: int = 0
    failures: list[str] = field(default_factory=list)


def prepare(
    workload: Workload, seed: int, index: int, smoke: bool
) -> dict[str, Any]:
    """Build input set *index* of *seed*: everything that counts as set-up."""
    rng = random.Random(f"{type(workload.shape).__name__}:{seed}:{index}")
    if isinstance(workload.shape, Serving):
        return _serving_inputs(workload.shape.scaled(smoke), rng)
    return _oneshot_inputs(rng, smoke)


def run_pass(
    workload: Workload, inputs: dict[str, Any], registry: Any = None
) -> Pass:
    """Run one pass; *registry*, if given, observes it."""
    if isinstance(workload.shape, Serving):
        return _serving_pass(workload.shape, inputs, registry)
    return _oneshot_pass(inputs, registry)


# -- serving -----------------------------------------------------------------

def _serving_inputs(shape: Serving, rng: random.Random) -> dict[str, Any]:
    arrivals = sorted(
        (rng.uniform(0.0, shape.active_us), g)
        for g in range(shape.n_groups)
        for _ in range(shape.msgs_per_group)
    )
    overrides = {
        k: v for k, v in (
            ("link_latency", shape.link_latency),
            ("switch_hop_latency", shape.switch_hop_latency),
        ) if v is not None
    }
    spec = serving_point(
        n_nodes=shape.n_nodes,
        traffic=TrafficSpec(
            duration_us=shape.active_us + shape.drain_us,
            n_groups=shape.n_groups,
            group_size=shape.group_size,
            arrival="trace",
            trace_arrivals=tuple(arrivals),
            # cycled per group: four strata of every class, interleaved
            sizes=tuple(
                _size(rng, size, k, 4)
                for k in range(4) for size in shape.size_classes
            ),
            schemes=shape.schemes,
            churn_interval_us=shape.churn_interval_us,
        ),
        cost=GMCostModel(**overrides),
        seed=rng.randrange(2**31),
    )
    # The set-up cluster: the construction a user pays before any
    # traffic, and the cable list the outages are drawn from.
    cluster = Cluster(spec.cluster)
    loss = None
    if shape.loss_rate:
        loss = LossSpec(
            kind="bernoulli", rate=shape.loss_rate,
            packet_types=("MCAST_DATA",),
        )
    failures = None
    if shape.spine_outages:
        failures = _spine_outages(
            rng, cluster, shape.spine_outages, shape.active_us
        )
    if loss is not None or failures is not None:
        spec = dataclasses.replace(
            spec,
            cluster=dataclasses.replace(
                spec.cluster, loss=loss, failures=failures
            ),
        )
    return {"spec": spec, "active_us": shape.active_us}


def _spine_outages(
    rng: random.Random, cluster: Cluster, count: int, active_us: float
) -> FailureSpec:
    """*count* healed outages of switch-to-switch cables under traffic.

    Spine cables leave every node reachable, so each outage reroutes
    traffic and invalidates route memos without isolating a node.
    Random outages of NIC cables are not used: they make the serving
    workload deliver duplicates (see README, known failures).
    """
    cables = cluster.topology.cables()
    spine = [
        i for i, (a, b) in enumerate(cables)
        if a[0] != "nic" and b[0] != "nic"
    ]
    events = []
    for _ in range(count):
        down = rng.uniform(0.05, 0.8) * active_us
        cable = spine[rng.randrange(len(spine))]
        events.append(FailureEvent(down, "link_down", cable))
        events.append(
            FailureEvent(down + rng.uniform(500.0, 3000.0), "link_up", cable)
        )
    events.sort(key=lambda e: (e.time_us, e.action, e.target))
    return FailureSpec(kind="scheduled", events=tuple(events))


def _serving_pass(shape: Serving, inputs: dict[str, Any], registry: Any) -> Pass:
    spec: ScenarioSpec = inputs["spec"]
    active_us = inputs["active_us"]
    timeseries = flight = None
    if shape.observed:
        registry = registry if registry is not None else MetricsRegistry()
        flight = FlightRecorder(sample=1.0)
        timeseries = TimeSeriesRecorder(registry, interval_us=1000.0)
    elif registry is not None:
        # One window, closing when arrivals stop: how many were posted.
        timeseries = TimeSeriesRecorder(
            registry, interval_us=active_us,
            prefixes=("serving",), histograms=(),
        )
    stats = Harness(
        spec, registry=registry, flight=flight, timeseries=timeseries
    ).run().values[0]

    size = spec.traffic.group_size
    due = len(spec.traffic.trace_arrivals)
    failures = []
    failed = 0
    for gid, g in sorted(stats.per_group.items()):
        miss = abs(g.posted * size - g.delivered)
        if miss:
            failed += miss
            failures.append(
                f"group {gid} ({g.scheme}): {g.delivered} deliveries "
                f"for {g.posted} posts x {size} members"
            )
    if stats.msgs_posted != due:
        failed += (due - stats.msgs_posted) * size
        failures.append(f"posted {stats.msgs_posted} of {due} messages")
    backlog = 0
    if timeseries is not None:
        posted = [
            s["counters"].get("serving.msgs_posted", 0)
            for s in timeseries.snapshots if s["t"] <= active_us
        ]
        backlog = due - int(posted[-1] if posted else 0)
    snap = stats.snapshot()
    return Pass(
        ops=stats.msgs_posted * size,
        failed=failed,
        latencies_us=list(stats.latencies_us),
        fingerprint=digest(snap),
        observable=digest(
            {k: v for k, v in snap.items() if k != "sim_events"}
        ),
        backlog_msgs=backlog,
        failures=failures,
    )


# -- one-shot cells ----------------------------------------------------------

MPI_RANKS = 16
BCAST_NODES = 64
SMOKE_BCAST_NODES = 16


def _oneshot_inputs(rng: random.Random, smoke: bool) -> dict[str, Any]:
    seed = rng.randrange(2**31)
    cells: list[tuple[str, ScenarioSpec]] = []
    for nic in (True, False):
        kind = "nic" if nic else "host"
        cells.append((
            f"mpi_bcast[{kind},8192B]",
            mpi_bcast_point(MPI_RANKS, 8192, nic, iterations=6, warmup=2,
                            seed=seed),
        ))
        cells.append((
            f"mpi_skew[{kind},3200us]",
            skew_point(MPI_RANKS, nic, 3200.0, 4, 8, seed=seed),
        ))
    nodes = SMOKE_BCAST_NODES if smoke else BCAST_NODES
    for size in (4096, 16384):
        size = _size(rng, size)
        for family in ("nic_based", "nic_nack", "nic_nack_fec"):
            cells.append((
                f"broadcast[{family},{size}B]",
                broadcast_point(
                    nodes, size, family, seed=seed, tree_shape="binomial"
                ),
            ))
    # fig8's outage pattern: interior NIC links of the binomial tree,
    # largest subtree first, staggered 40 us, healed 670 us later.  The
    # first outage starts within 30 us of the post: later starts crash
    # the recovery schemes (see README, known failures).
    cluster = Cluster(ClusterConfig(n_nodes=nodes, seed=seed))
    victims = (nodes // 2, nodes // 4, nodes // 8)
    for count in (1,) if smoke else (1, 3):
        down = rng.uniform(10.0, 30.0)
        events = []
        for k, victim in enumerate(victims[:count]):
            cable = cluster.topology.nic_cable_index(victim)
            at = down + 40.0 * k
            events.append(FailureEvent(at, "link_down", cable))
            events.append(FailureEvent(at + 670.0, "link_up", cable))
        events.sort(key=lambda e: (e.time_us, e.action, e.target))
        failures = FailureSpec(kind="scheduled", events=tuple(events))
        size = _size(rng, 16384)
        for scheme in ("nic_based", "backup_tree", "tree_repair"):
            cells.append((
                f"broadcast[{scheme},outages={count},{size}B]",
                broadcast_point(
                    nodes, size, scheme, seed=seed,
                    tree_shape="binomial", failures=failures,
                ),
            ))
    return {"cells": cells}


def _oneshot_pass(inputs: dict[str, Any], registry: Any) -> Pass:
    outputs: dict[str, Any] = {}
    latencies: list[float] = []
    failures: list[str] = []
    for label, spec in inputs["cells"]:
        size = spec.measurement.sizes[0]
        try:
            value = Harness(spec, registry=registry).run().values[size]
        except Exception as exc:  # a raising cell is a failed operation
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
            outputs[label] = None
            continue
        if spec.workload.kind == "broadcast":
            members = spec.destinations()
            if not value.delivered_all(members):
                missing = sorted(set(members) - set(value.deliveries))
                failures.append(f"{label}: missing members {missing}")
            if spec.cluster.failures is None:
                # Outage cells are checked and timed, but kept out of the
                # quantiles: when the retransmit timer fires relative to
                # the heal moves their tail by a timeout period.
                latencies += [
                    t - value.start_us for t in value.deliveries.values()
                ]
            outputs[label] = sorted(value.deliveries.items())
        else:
            outputs[label] = repr(value)
    fingerprint = digest(outputs)
    return Pass(
        ops=len(inputs["cells"]),
        failed=len(failures),
        latencies_us=latencies,
        fingerprint=fingerprint,
        observable=fingerprint,
        failures=failures,
    )
