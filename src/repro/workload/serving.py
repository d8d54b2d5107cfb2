"""The sustained-traffic serving workload.

The paper's measurements are one-shot broadcasts; the regime its claims
actually target — and the ROADMAP's sustained-traffic serving mode — is
*serving*: many concurrent multicast groups over one cluster,
continuous message arrivals, membership churn.  :class:`TrafficEngine`
runs that workload from a :class:`~repro.scenario.spec.TrafficSpec`:

* ``n_groups`` groups share the cluster; group *g* is rooted at node
  ``g % n_nodes`` with ``group_size`` members on the following nodes,
  and is bound to ``schemes[g % len(schemes)]`` through the multicast
  scheme registry;
* each root posts messages on a seeded Poisson schedule (or replays an
  explicit arrival trace), **at most one outstanding message per
  group** — a late send completion makes the root post the overdue
  arrivals immediately, preserving the schedule's determinism without
  exhausting send tokens;
* membership churn rotates one member out for a spare node at seeded
  exponential gaps.  The change is *applied by the root between sends*
  (a fresh scheme binding — new group epoch — so reliability state
  never straddles a membership change);
* every member node runs one receive loop; deliveries are attributed
  to their group and post time through the message ``info`` payload
  and fed to the duck-typed ``sim.metrics`` slot (per-group delivery
  histograms, ``serving.*`` counters/gauges) as well as to the plain
  accumulators behind :class:`ServingStats`.

Everything is driven by named simulator RNG streams, so a pinned seed
makes the whole run — including the stats snapshot — bit-identical
across repeats (verified by a regression test).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator

from repro.cluster import Cluster
from repro.mcast.schemes import create_scheme, get_scheme
from repro.trees import build_tree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenario.harness import Harness
    from repro.scenario.spec import ScenarioSpec, TrafficSpec

__all__ = ["GroupStats", "ServingStats", "TrafficEngine", "run_serving"]

#: Delivery-latency histogram buckets (µs) for the serving metrics.
DELIVERY_BUCKETS_US = (
    25.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0,
)


@dataclass
class GroupStats:
    """Per-group serving outcome."""

    scheme: str
    posted: int = 0
    delivered: int = 0
    churn_epochs: int = 0
    sum_delivery_us: float = 0.0
    max_delivery_us: float = 0.0

    @property
    def mean_delivery_us(self) -> float:
        return self.sum_delivery_us / self.delivered if self.delivered else 0.0


@dataclass
class ServingStats:
    """Everything one serving run produced (deterministic per seed)."""

    duration_us: float
    warmup_us: float
    n_groups: int
    msgs_posted: int = 0
    msgs_delivered: int = 0
    churn_events: int = 0
    sim_events: int = 0
    per_group: dict[int, GroupStats] = field(default_factory=dict)
    #: all post-warmup delivery latencies, in delivery order (µs)
    latencies_us: list[float] = field(default_factory=list)

    @property
    def measured_us(self) -> float:
        return self.duration_us - self.warmup_us

    @property
    def delivered_msgs_per_sec(self) -> float:
        """Deliveries per *simulated* second over the measured window."""
        return self.msgs_delivered / (self.measured_us * 1e-6)

    @property
    def sim_events_per_us(self) -> float:
        return self.sim_events / self.duration_us

    def quantile(self, q: float) -> float:
        if not self.latencies_us:
            return 0.0
        ordered = sorted(self.latencies_us)
        idx = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[idx]

    def snapshot(self) -> dict[str, Any]:
        """A JSON-able, wall-clock-free summary (the determinism probe)."""
        return {
            "duration_us": self.duration_us,
            "warmup_us": self.warmup_us,
            "n_groups": self.n_groups,
            "msgs_posted": self.msgs_posted,
            "msgs_delivered": self.msgs_delivered,
            "churn_events": self.churn_events,
            "sim_events": self.sim_events,
            "delivered_msgs_per_sec": round(self.delivered_msgs_per_sec, 6),
            "p50_delivery_us": round(self.quantile(0.50), 6),
            "p99_delivery_us": round(self.quantile(0.99), 6),
            "per_group": {
                gid: {
                    "scheme": g.scheme,
                    "posted": g.posted,
                    "delivered": g.delivered,
                    "churn_epochs": g.churn_epochs,
                    "mean_delivery_us": round(g.mean_delivery_us, 6),
                    "max_delivery_us": round(g.max_delivery_us, 6),
                }
                for gid, g in sorted(self.per_group.items())
            },
        }


class _Group:
    """One serving group: membership, scheme binding, pending churn."""

    __slots__ = (
        "index", "root", "members", "scheme_key", "bound",
        "pending_members", "stats",
    )

    def __init__(self, index: int, root: int, members: list[int], scheme: str):
        self.index = index
        self.root = root
        self.members = members
        self.scheme_key = scheme
        self.bound = None
        self.pending_members: list[int] | None = None
        self.stats = GroupStats(scheme=scheme)


class TrafficEngine:
    """Runs one serving scenario (spec kind ``"serving"``) to completion."""

    def __init__(self, spec: "ScenarioSpec", registry: Any = None):
        if spec.traffic is None:
            raise ValueError("TrafficEngine needs a spec with traffic")
        self.spec = spec
        self.traffic: "TrafficSpec" = spec.traffic
        self.cluster = Cluster(spec.cluster)
        if registry is not None:
            self.cluster.sim.metrics = registry
        t = self.traffic
        self.stats = ServingStats(
            duration_us=t.duration_us,
            warmup_us=t.warmup_us,
            n_groups=t.n_groups,
        )
        self.groups = [self._make_group(i) for i in range(t.n_groups)]
        self.stats.per_group = {g.index: g.stats for g in self.groups}
        #: the programs :meth:`start` spawned, ended by :meth:`close`
        self._programs: list = []

    # -- group lifecycle ---------------------------------------------------
    def _make_group(self, index: int) -> _Group:
        n = self.cluster.n_nodes
        t = self.traffic
        root = index % n
        members = [(root + 1 + j) % n for j in range(t.group_size)]
        return _Group(index, root, members, t.schemes[index % len(t.schemes)])

    def _bind(self, group: _Group, size_hint: int) -> None:
        """(Re)bind the group's scheme to its current membership.

        A fresh binding per membership epoch: NIC-table schemes install
        the new tree under a fresh group id, so reliability state from
        the previous epoch is never reused.
        """
        scheme_spec = get_scheme(group.scheme_key)
        if scheme_spec.tree_uses_cost:
            tree = build_tree(
                group.root, group.members, shape=scheme_spec.default_tree,
                cost=self.cluster.cost, size=size_hint,
            )
        else:
            tree = build_tree(
                group.root, group.members, shape=scheme_spec.default_tree
            )
        group.bound = create_scheme(group.scheme_key, self.cluster, tree)
        group.bound.install()

    def _apply_churn(self, group: _Group) -> None:
        group.members = group.pending_members
        group.pending_members = None
        self._bind(group, self.traffic.sizes[0])
        group.stats.churn_epochs += 1
        m = self.cluster.sim.metrics
        if m is not None:
            m.inc("serving.churn_applied")

    # -- arrival schedules -------------------------------------------------
    def _arrival_gaps(self, group: _Group):
        """Deterministic generator of the group's absolute arrival times."""
        t = self.traffic
        if t.arrival == "trace":
            yield from (
                when for when, gidx in t.trace_arrivals
                if gidx == group.index
            )
            return
        rng = self.cluster.sim.rng(f"serving.arrivals[{group.index}]")
        when = 0.0
        while True:
            when += rng.expovariate(t.rate_per_group)
            yield when

    # -- host programs -----------------------------------------------------
    def _root_prog(self, group: _Group) -> Generator:
        t = self.traffic
        cluster = self.cluster
        sim = cluster.sim
        m = sim.metrics
        sizes = t.sizes
        for when in self._arrival_gaps(group):
            if when >= t.duration_us:
                return
            if when > sim.now:
                yield sim.timeout(when - sim.now)
            if group.pending_members is not None:
                self._apply_churn(group)
            size = sizes[group.stats.posted % len(sizes)]
            info = {"sg": group.index, "t0": sim.now}
            yield from group.bound.send(size, info=info)
            group.stats.posted += 1
            self.stats.msgs_posted += 1
            if m is not None:
                m.inc("serving.msgs_posted")

    def _member_prog(self, node_id: int) -> Generator:
        cluster = self.cluster
        sim = cluster.sim
        port = cluster.port(node_id)
        t = self.traffic
        stats = self.stats
        while True:
            completion = yield from port.receive()
            info = completion.info or {}
            gidx = info.get("sg")
            now = sim.now
            if gidx is not None:
                group = self.groups[gidx]
                t0 = info.get("t0", 0.0)
                if t0 >= t.warmup_us:
                    latency = now - t0
                    stats.msgs_delivered += 1
                    stats.latencies_us.append(latency)
                    gs = group.stats
                    gs.delivered += 1
                    gs.sum_delivery_us += latency
                    if latency > gs.max_delivery_us:
                        gs.max_delivery_us = latency
                    m = sim.metrics
                    if m is not None:
                        m.inc("serving.msgs_delivered")
                        m.observe(
                            "serving.delivery_us", latency,
                            DELIVERY_BUCKETS_US,
                        )
                        m.observe(
                            f"serving.group[{gidx}].delivery_us", latency,
                            DELIVERY_BUCKETS_US,
                        )
            yield from port.provide_receive_buffer()
            if gidx is not None:
                yield from self.groups[gidx].bound.relay(
                    node_id, completion.size, info=info
                )

    def _churn_prog(self) -> Generator:
        t = self.traffic
        sim = self.cluster.sim
        rng = sim.rng("serving.churn")
        n = self.cluster.n_nodes
        while True:
            yield sim.timeout(rng.expovariate(1.0 / t.churn_interval_us))
            group = self.groups[rng.randrange(len(self.groups))]
            current = (
                group.pending_members
                if group.pending_members is not None
                else group.members
            )
            spares = sorted(
                set(range(n)) - set(current) - {group.root}
            )
            if not spares:
                continue
            leave = rng.randrange(len(current))
            join = spares[rng.randrange(len(spares))]
            updated = list(current)
            updated[leave] = join
            group.pending_members = updated
            self.stats.churn_events += 1
            m = sim.metrics
            if m is not None:
                m.inc("serving.churn_scheduled")

    # -- run ---------------------------------------------------------------
    def start(self) -> None:
        """Bind every group and spawn every program."""
        t = self.traffic
        cluster = self.cluster
        programs = self._programs
        for group in self.groups:
            self._bind(group, t.sizes[0])
        for group in self.groups:
            programs.append(cluster.spawn(
                self._root_prog(group), name=f"serving_root[{group.index}]"
            ))
        for node_id in range(cluster.n_nodes):
            programs.append(cluster.spawn(
                self._member_prog(node_id), name=f"serving_rx[{node_id}]"
            ))
        if t.churn_interval_us:
            programs.append(
                cluster.spawn(self._churn_prog(), name="serving_churn")
            )

    def finalize(self) -> ServingStats:
        """Stamp the end-of-run stats (after the clock reached duration)."""
        stats = self.stats
        stats.sim_events = self.cluster.sim.events_processed
        m = self.cluster.sim.metrics
        if m is not None:
            # Simulated-time rates only: wall-clock numbers would break
            # the pinned-seed determinism of the metrics snapshot.
            m.set_gauge(
                "serving.delivered_msgs_per_sec", stats.delivered_msgs_per_sec
            )
            m.set_gauge("serving.sim_events_per_us", stats.sim_events_per_us)
        return stats

    def run(self) -> ServingStats:
        self.start()
        self.cluster.run(until=self.traffic.duration_us)
        return self.finalize()

    def close(self) -> None:
        """End the programs :meth:`start` spawned (member loops wait
        forever on their ports) and close the cluster."""
        for program in self._programs:
            program.close()
        self._programs.clear()
        self.cluster.close()


def run_serving(harness: "Harness") -> dict[int, ServingStats]:
    """Harness runner for workload kind ``"serving"``.

    Registered with :func:`repro.scenario.register_workload_runner` on
    :mod:`repro.workload` import; returns the ``values`` mapping for the
    :class:`~repro.scenario.harness.ScenarioResult` (one run, keyed 0).
    """
    engine = TrafficEngine(harness.spec, registry=harness.registry)
    flight = getattr(harness, "flight", None)
    if flight is not None:
        engine.cluster.sim.flight = flight
    ts = getattr(harness, "timeseries", None)
    if ts is not None:
        ts.install(engine.cluster.sim, harness.spec.traffic.duration_us)
    try:
        stats = engine.run()
        if ts is not None:
            ts.finalize(engine.cluster.sim.now)
    finally:
        engine.close()
    return {0: stats}
