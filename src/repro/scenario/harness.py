"""Scenario execution: the paper's timing methodology, spec-driven.

The paper times 10,000 iterations after 20 warmup iterations on real
hardware; the simulator is deterministic, so far fewer iterations give
stable means (loss-free runs are exactly periodic).  Methodology notes:

* **Multisend (Fig. 3)** — "the source node transmits a message to
  multiple destinations and waits for an acknowledgment from the last
  destination": one iteration = post → all GM acks back at the root.
* **Multicast (Figs. 4/5)** — "wait for an acknowledgment from one of
  the leaf nodes ... repeated with different leaf nodes ... maximum
  taken": we record every destination's delivery time each iteration
  and add the measured 0-byte unicast (the leaf's ack trip), then take
  the maximum over destinations — the same quantity in one run.

:class:`Harness` owns the whole lifecycle for one
:class:`~repro.scenario.spec.ScenarioSpec`: cluster construction
(including the config's loss model), scheme binding through the
registry, the shared root/member/receiver program templates, the
round-barrier + per-destination delivery tracking, and — optionally — a
metrics registry attached through the duck-typed ``sim.metrics`` slot
(this package never imports ``repro.obs``).

:func:`run_cell` is the module-level, picklable entry point sweep cells
use to run a serialized spec inside a pool worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean
from typing import Any, Generator

from repro.cluster import Cluster
from repro.errors import ConfigError
from repro.gm.params import GMCostModel
from repro.mcast.schemes import create_scheme, get_scheme, resolve_scheme
from repro.mpi.comm import Communicator
from repro.mpi.skew import run_skew_experiment
from repro.scenario.spec import ScenarioSpec, unicast_point
from repro.trees import build_tree

__all__ = [
    "BroadcastResult",
    "Harness",
    "MulticastMeasurement",
    "ScenarioResult",
    "measured_ack_trip",
    "register_workload_runner",
    "run_cell",
    "run_spec",
]

#: Workload kinds executed by externally registered runners.  The
#: serving workload lives in :mod:`repro.workload`, which sits *above*
#: this package in the layering — the harness must not import it, so
#: ``repro.workload`` registers its runner here on import.  A runner
#: takes the :class:`Harness` and returns the ``values`` mapping for
#: the :class:`ScenarioResult`.
_WORKLOAD_RUNNERS: dict[str, Any] = {}


def register_workload_runner(kind: str, runner: Any) -> None:
    """Register *runner* to execute scenarios of workload *kind*."""
    _WORKLOAD_RUNNERS[kind] = runner


@dataclass
class MulticastMeasurement:
    """Per-size multicast timing."""

    latency: float  #: the paper's metric (max leaf delivery + leaf ack)
    per_dest_delivery: dict[int, float]  #: mean delivery per destination
    ack_trip: float  #: measured 0-byte unicast added as the leaf ack


@dataclass
class BroadcastResult:
    """One one-shot broadcast, with the per-destination evidence.

    ``completion_us`` is the headline (root post to the last member's
    host delivery); ``deliveries`` maps every member to its absolute
    delivery time, so 100% delivery is checked per destination, not
    inferred from the maximum.
    """

    completion_us: float
    start_us: float
    deliveries: dict[int, float]

    def delivered_all(self, members: list[int]) -> bool:
        return set(self.deliveries) == set(members)


@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    spec: ScenarioSpec
    metric: str
    values: dict[int, Any]  #: message size -> per-point value

    def value(self, size: int) -> Any:
        return self.values[size]

    def scalar(self, size: int) -> float:
        """The point's headline number, whatever the value's shape."""
        value = self.values[size]
        if isinstance(value, MulticastMeasurement):
            return value.latency
        if isinstance(value, BroadcastResult):
            return value.completion_us
        if hasattr(value, "mean_bcast_cpu_time"):  # SkewResult
            return value.mean_bcast_cpu_time
        if hasattr(value, "delivered_msgs_per_sec"):  # ServingStats
            return value.delivered_msgs_per_sec
        return float(value)


#: Measured 0-byte unicast per cost model.  Every multicast point adds
#: the leaf's ack trip; the probe is deterministic per cost model, so
#: one measurement per model serves the whole sweep (memoized per
#: process — pool workers each warm their own cache).
_ACK_TRIP_CACHE: dict[GMCostModel, float] = {}


def measured_ack_trip(cost: GMCostModel) -> float:
    """The 0-byte unicast latency for *cost* (memoized, value unchanged)."""
    try:
        return _ACK_TRIP_CACHE[cost]
    except KeyError:
        value = Harness(unicast_point(cost=cost, size=0)).run().values[0]
        _ACK_TRIP_CACHE[cost] = value
        return value


class Harness:
    """Executes one :class:`ScenarioSpec` (a fresh cluster per size).

    ``registry`` — an optional metrics registry (duck-typed; normally a
    :class:`repro.obs.registry.MetricsRegistry`) adopted by every
    simulator the harness builds, via the ``sim.metrics`` slot.

    ``flight`` — an optional flight recorder (duck-typed; normally a
    :class:`repro.obs.flight.FlightRecorder`), adopted the same way via
    ``sim.flight``.  ``timeseries`` — an optional windowed sampler
    (normally a :class:`repro.obs.timeseries.TimeSeriesRecorder`),
    installed on serving clusters for the traffic duration through its
    ``install``/``finalize`` protocol.  All three slots keep this
    package observer-free: it never imports ``repro.obs``.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        registry: Any = None,
        flight: Any = None,
        timeseries: Any = None,
    ):
        self.spec = spec
        self.registry = registry
        self.flight = flight
        self.timeseries = timeseries

    # -- lifecycle -----------------------------------------------------------
    def build_cluster(self) -> Cluster:
        """A fresh cluster for one measurement point; the caller closes it."""
        cluster = Cluster(self.spec.cluster)
        if self.registry is not None:
            cluster.sim.metrics = self.registry
        if self.flight is not None:
            cluster.sim.flight = self.flight
        if self.timeseries is not None and self.spec.traffic is not None:
            self.timeseries.install(
                cluster.sim, self.spec.traffic.duration_us
            )
        return cluster

    def run(self) -> ScenarioResult:
        """Measure every size in the spec's measurement policy."""
        kind = self.spec.workload.kind
        method = getattr(self, "_run_" + kind, None)
        if method is not None:
            values = {}
            for size in self.spec.measurement.sizes:
                # A fresh cluster per point, closed once its value is
                # taken (no result holds a reference into the cluster).
                with self.build_cluster() as cluster:
                    values[size] = method(cluster, size)
        else:
            try:
                runner = _WORKLOAD_RUNNERS[kind]
            except KeyError:
                raise ConfigError(
                    f"no runner registered for workload kind {kind!r}; "
                    "'serving' scenarios need `import repro.workload` "
                    "first (the CLI and perf entry points do this)"
                ) from None
            values = runner(self)
        return ScenarioResult(
            spec=self.spec, metric=self.spec.metric, values=values
        )

    # -- program templates ---------------------------------------------------
    def _run_unicast(self, cluster: Cluster, size: int) -> float:
        """Mean one-way GM latency (send post → receive event at the host)."""
        spec = self.spec
        iterations = spec.measurement.iterations
        src = spec.workload.root
        dst = spec.destinations()[0]
        deliveries: list[float] = []
        starts: list[float] = []

        def receiver() -> Generator:
            port = cluster.port(dst)
            for _ in range(iterations):
                yield from port.receive()
                deliveries.append(cluster.now)
                yield from port.provide_receive_buffer()

        def sender() -> Generator:
            port = cluster.port(src)
            for _ in range(iterations):
                starts.append(cluster.now)
                handle = yield from port.send(dst, size)
                yield handle.done

        s = cluster.spawn(sender())
        r = cluster.spawn(receiver())
        cluster.run(until=cluster.sim.all_of([s, r]))
        return mean(d - t0 for d, t0 in zip(deliveries, starts))

    def _run_multisend(self, cluster: Cluster, size: int) -> float:
        """Fig. 3 metric: mean time from post to the last destination's ack."""
        spec = self.spec
        dests = spec.destinations()
        tree = build_tree(
            spec.workload.root, dests,
            shape=spec.workload.tree_shape or "flat",
        )
        durations: list[float] = []
        warmup = spec.measurement.warmup
        total = warmup + spec.measurement.iterations

        bound = create_scheme(
            resolve_scheme(spec.workload.scheme, context="multisend"),
            cluster, tree,
        )
        bound.install()

        def root() -> Generator:
            for it in range(total):
                start = cluster.now
                yield from bound.send(size)
                if it >= warmup:
                    durations.append(cluster.now - start)

        def receiver(i: int) -> Generator:
            port = cluster.port(i)
            for _ in range(total):
                yield from port.receive()
                yield from port.provide_receive_buffer()

        procs = [cluster.spawn(root())]
        procs += [cluster.spawn(receiver(i)) for i in dests]
        cluster.run(until=cluster.sim.all_of(procs))
        return mean(durations)

    def _run_multicast(
        self, cluster: Cluster, size: int
    ) -> MulticastMeasurement:
        """Fig. 5 metric for one (system size, message size, scheme) point."""
        spec = self.spec
        cost = spec.cluster.cost
        dests = spec.destinations()
        warmup = spec.measurement.warmup
        total = warmup + spec.measurement.iterations
        iterations = spec.measurement.iterations
        sums: dict[int, float] = {d: 0.0 for d in dests}
        iteration_start = [0.0]
        round_done: list[Any] = [None]

        def begin_round() -> None:
            remaining = set(dests)
            ev = cluster.sim.event()
            round_done[0] = (remaining, ev)
            iteration_start[0] = cluster.now

        def mark_delivered(dest: int, it: int) -> None:
            if it >= warmup:
                sums[dest] += cluster.now - iteration_start[0]
            remaining, ev = round_done[0]
            remaining.discard(dest)
            if not remaining:
                ev.succeed(None)

        scheme_spec = get_scheme(
            resolve_scheme(spec.workload.scheme, context="multicast")
        )
        shape = spec.workload.tree_shape or scheme_spec.default_tree
        if scheme_spec.tree_uses_cost:
            tree = build_tree(
                spec.workload.root, dests, shape=shape, cost=cost, size=size
            )
        else:
            tree = build_tree(spec.workload.root, dests, shape=shape)
        bound = scheme_spec.cls(scheme_spec, cluster, tree)
        bound.reliability = spec.reliability
        bound.install()

        def root() -> Generator:
            for _ in range(total):
                begin_round()
                yield from bound.post(size)
                yield round_done[0][1]

        def member(i: int) -> Generator:
            port = cluster.port(i)
            for it in range(total):
                yield from port.receive()
                mark_delivered(i, it)
                yield from port.provide_receive_buffer()
                yield from bound.relay(i, size)

        procs = [cluster.spawn(root())]
        procs += [cluster.spawn(member(i)) for i in dests]
        cluster.run(until=cluster.sim.all_of(procs))

        per_dest = {d: sums[d] / iterations for d in dests}
        ack_trip = measured_ack_trip(cost)
        return MulticastMeasurement(
            latency=max(per_dest.values()) + ack_trip,
            per_dest_delivery=per_dest,
            ack_trip=ack_trip,
        )

    def _run_broadcast(self, cluster: Cluster, size: int) -> BroadcastResult:
        """Fig. 8 metric: one one-shot broadcast, run to quiescence.

        Unlike the iterated multicast loop there is no round barrier:
        the cluster runs until the event queue drains, so scheduled
        failure events, recovery replays, and the retransmit tail all
        play out — the delivery-guarantee window must close for the
        run to end at all.
        """
        spec = self.spec
        dests = spec.destinations()
        deliveries: dict[int, float] = {}
        start = [0.0]

        scheme_spec = get_scheme(
            resolve_scheme(spec.workload.scheme, context="multicast")
        )
        shape = spec.workload.tree_shape or scheme_spec.default_tree
        if scheme_spec.tree_uses_cost:
            tree = build_tree(
                spec.workload.root, dests, shape=shape,
                cost=spec.cluster.cost, size=size,
            )
        else:
            tree = build_tree(spec.workload.root, dests, shape=shape)
        bound = scheme_spec.cls(scheme_spec, cluster, tree)
        bound.reliability = spec.reliability
        bound.install()

        def root() -> Generator:
            start[0] = cluster.now
            yield from bound.post(size)

        def member(i: int) -> Generator:
            port = cluster.port(i)
            yield from port.receive()
            deliveries[i] = cluster.now
            yield from port.provide_receive_buffer()
            yield from bound.relay(i, size)

        cluster.spawn(root())
        for i in dests:
            cluster.spawn(member(i))
        cluster.run()  # to quiescence: protocol tail included
        m = cluster.sim.metrics
        if m is not None and deliveries:
            m.observe(
                "mcast.broadcast.delivery_gap_us",
                max(deliveries.values()) - min(deliveries.values()),
            )
        return BroadcastResult(
            completion_us=(
                max(deliveries.values(), default=start[0]) - start[0]
            ),
            start_us=start[0],
            deliveries=deliveries,
        )

    def _run_mpi_bcast(self, cluster: Cluster, size: int) -> float:
        """Fig. 4 metric: mean broadcast latency at the MPI level.

        One iteration = root's bcast entry to the last rank's bcast exit,
        plus the measured 0-byte unicast for the leaf's acknowledgment (as
        in the GM-level methodology).  Ranks are pre-synchronized with a
        barrier per iteration, mirroring the paper's loop.
        """
        spec = self.spec
        cost = spec.cluster.cost
        comm = Communicator(cluster, nic_bcast=spec.workload.nic)
        root_rank = spec.workload.root
        root_enter: dict[int, float] = {}
        last_exit: dict[int, float] = {}
        warmup = spec.measurement.warmup
        total = warmup + spec.measurement.iterations

        def program(ctx) -> Generator:
            for it in range(total):
                yield from ctx.barrier()
                if ctx.rank == root_rank:
                    root_enter[it] = ctx.sim.now
                yield from ctx.bcast(root=root_rank, size=size)
                last_exit[it] = max(last_exit.get(it, 0.0), ctx.sim.now)

        try:
            comm.run(program)
        finally:
            comm.close()
        durations = [
            last_exit[it] - root_enter[it] for it in range(warmup, total)
        ]
        ack_trip = measured_ack_trip(cost)
        return mean(durations) + ack_trip

    def _run_mpi_skew(self, cluster: Cluster, size: int):
        """Fig. 6/7 metric: host CPU time in MPI_Bcast under process skew."""
        spec = self.spec
        comm = Communicator(cluster, nic_bcast=spec.workload.nic)
        try:
            return run_skew_experiment(
                comm,
                size=size,
                max_skew=spec.workload.max_skew,
                iterations=spec.measurement.iterations,
                warmup=spec.measurement.warmup,
                root=spec.workload.root,
            )
        finally:
            comm.close()


def run_spec(spec: ScenarioSpec, registry: Any = None) -> ScenarioResult:
    """Convenience: execute *spec* and return its result."""
    return Harness(spec, registry=registry).run()


def run_cell(payload: str) -> dict[int, Any]:
    """Sweep-cell entry point: run a serialized spec, return its values.

    Module-level so a :class:`~repro.experiments.parallel.SweepCell` can
    pickle it into a pool worker; the spec travels as its JSON form.
    """
    return Harness(ScenarioSpec.from_json(payload)).run().values
