"""Partitioned scenario execution: spec-driven sharded runs.

Glue between the declarative layer and the conservative-parallel kernel
(:mod:`repro.sim.parallel`): build a :class:`PartitionPlan` from a
scenario's cluster config, construct one shard-local
:class:`~repro.cluster.Cluster` per shard, spawn each measurement
program on the shard owning its node, and drive everything through the
safe-window conductor.

The measurement programs here are line-for-line the serial harness
templates (:class:`repro.scenario.harness.Harness`): partitioned points
must reproduce serial values exactly, so the only differences are
*where* a program is spawned and that the multicast group id is pinned
(every shard must stamp the same id into packets, so the id cannot come
from the process-global allocator mid-run).
"""

from __future__ import annotations

from statistics import mean
from typing import TYPE_CHECKING, Any, Generator

from repro.cluster import Cluster, build_topology
from repro.mcast.schemes import create_scheme, get_scheme, resolve_scheme
from repro.scenario.harness import BroadcastResult
from repro.scenario.spec import ScenarioSpec
from repro.sim.engine import Simulator
from repro.sim.parallel import PartitionPlan, ShardSet, merge_flight_events
from repro.trees import build_tree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenario.harness import Harness

__all__ = [
    "PINNED_GROUP_ID",
    "build_shard",
    "make_plan",
    "run_point_partitioned",
]

#: The group id partitioned single-group workloads install everywhere.
#: Shards allocate ids independently, so a pinned value is the only way
#: every shard's group table agrees with the ids stamped into packets.
PINNED_GROUP_ID = 1


def make_plan(spec: ScenarioSpec) -> PartitionPlan:
    """The spec's partition plan, from a scratch topology replica."""
    if spec.partition is None:
        raise ValueError("scenario spec has no partition section")
    topo = build_topology(Simulator(), spec.cluster)
    p = spec.partition
    return PartitionPlan.from_topology(
        topo, p.shards, partitioner=p.partitioner, seed=p.seed
    )


def build_shard(
    spec: ScenarioSpec,
    plan: PartitionPlan,
    shard_id: int,
    registry: Any = None,
    flight: Any = None,
) -> Cluster:
    """Shard *shard_id*'s cluster: local nodes only, links ownership-stamped.

    ``flight`` is a shard-private flight recorder (duck-typed; normally
    one ``FlightRecorder.fork()`` per shard — recorders must not be
    shared across shards, or conductor interleaving would scramble the
    append order the merge relies on).
    """
    cluster = Cluster(spec.cluster, local_nodes=plan.shard_nodes(shard_id))
    plan.bind(cluster.topology)
    if registry is not None:
        cluster.sim.metrics = registry
    if flight is not None:
        cluster.sim.flight = flight
    return cluster


class _PointShard:
    """One shard of a unicast/multisend measurement point.

    ``sim``/``network`` feed the conductor; ``result()`` returns the
    per-shard lists the point's value merges from.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        plan: PartitionPlan,
        shard_id: int,
        size: int,
        registry: Any = None,
        flight: Any = None,
    ):
        cluster = build_shard(spec, plan, shard_id, registry, flight=flight)
        self.cluster = cluster
        self.sim = cluster.sim
        self.network = cluster.network
        self.starts: list[float] = []
        self.deliveries: list[float] = []
        self.durations: list[float] = []
        #: broadcast kind: local member -> absolute host-delivery time
        self.delivery_map: dict[int, float] = {}
        kind = spec.workload.kind
        if kind == "unicast":
            self._setup_unicast(spec, size)
        elif kind == "multisend":
            self._setup_multisend(spec, size)
        elif kind == "broadcast":
            self._setup_broadcast(spec, size)
        else:  # pragma: no cover - guarded by PartitionSpec validation
            raise ValueError(f"kind {kind!r} has no partitioned point runner")

    # The program bodies below mirror Harness._run_unicast /
    # Harness._run_multisend exactly; see the module docstring.
    def _setup_unicast(self, spec: ScenarioSpec, size: int) -> None:
        cluster = self.cluster
        iterations = spec.measurement.iterations
        src = spec.workload.root
        dst = spec.destinations()[0]

        def receiver() -> Generator:
            port = cluster.port(dst)
            for _ in range(iterations):
                yield from port.receive()
                self.deliveries.append(cluster.now)
                yield from port.provide_receive_buffer()

        def sender() -> Generator:
            port = cluster.port(src)
            for _ in range(iterations):
                self.starts.append(cluster.now)
                handle = yield from port.send(dst, size)
                yield handle.done

        if cluster.is_local(src):
            cluster.spawn(sender())
        if cluster.is_local(dst):
            cluster.spawn(receiver())

    def _setup_multisend(self, spec: ScenarioSpec, size: int) -> None:
        cluster = self.cluster
        dests = spec.destinations()
        tree = build_tree(
            spec.workload.root, dests,
            shape=spec.workload.tree_shape or "flat",
        )
        warmup = spec.measurement.warmup
        total = warmup + spec.measurement.iterations

        # Every shard installs the same pinned group id into its local
        # members' tables (install_group skips remote nodes); only the
        # root's shard drives sends through the bound scheme.
        bound = create_scheme(
            resolve_scheme(spec.workload.scheme, context="multisend"),
            cluster, tree,
        )
        bound.group_id = PINNED_GROUP_ID
        bound.install()

        def root() -> Generator:
            for it in range(total):
                start = cluster.now
                yield from bound.send(size)
                if it >= warmup:
                    self.durations.append(cluster.now - start)

        def receiver(i: int) -> Generator:
            port = cluster.port(i)
            for _ in range(total):
                yield from port.receive()
                yield from port.provide_receive_buffer()

        if cluster.is_local(spec.workload.root):
            cluster.spawn(root())
        for i in dests:
            if cluster.is_local(i):
                cluster.spawn(receiver(i))

    def _setup_broadcast(self, spec: ScenarioSpec, size: int) -> None:
        """One-shot broadcast shard (mirrors Harness._run_broadcast).

        Every shard builds the same tree (deterministic from the spec)
        and binds the scheme with the pinned group id; self-healing
        schemes also construct identical TreeManager/RecoveryManager
        replicas per shard, each applying updates to local nodes only.
        There is no round barrier, so the conductor just runs every
        shard to quiescence.
        """
        cluster = self.cluster
        dests = spec.destinations()
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
        bound.group_id = PINNED_GROUP_ID
        bound.reliability = spec.reliability
        bound.install()

        def root() -> Generator:
            self.starts.append(cluster.now)
            yield from bound.post(size)

        def member(i: int) -> Generator:
            port = cluster.port(i)
            yield from port.receive()
            self.delivery_map[i] = cluster.now
            yield from port.provide_receive_buffer()
            yield from bound.relay(i, size)

        if cluster.is_local(spec.workload.root):
            cluster.spawn(root())
        for i in dests:
            if cluster.is_local(i):
                cluster.spawn(member(i))

    def result(self) -> dict[str, Any]:
        return {
            "starts": self.starts,
            "deliveries": self.deliveries,
            "durations": self.durations,
            "delivery_map": self.delivery_map,
        }


def _merge_point(kind: str, results: list[dict[str, Any]]) -> Any:
    """The point's serial-identical value from the per-shard lists."""
    if kind == "unicast":
        starts = sorted(t for r in results for t in r["starts"])
        deliveries = sorted(t for r in results for t in r["deliveries"])
        return mean(d - t0 for d, t0 in zip(deliveries, starts))
    if kind == "broadcast":
        start = min(t for r in results for t in r["starts"])
        deliveries: dict[int, float] = {}
        for r in results:
            deliveries.update(r["delivery_map"])
        return BroadcastResult(
            completion_us=max(deliveries.values(), default=start) - start,
            start_us=start,
            deliveries=deliveries,
        )
    durations = [d for r in results for d in r["durations"]]
    return mean(durations)


def run_point_partitioned(harness: "Harness", size: int) -> Any:
    """One partitioned unicast/multisend/broadcast point.

    Unicast/multisend values are serial-identical by construction.
    Broadcast points are self-deterministic per shard count (same spec
    and seed replay byte-identically at a given shard count); failure
    detection falls inside different conductor safe windows at
    different shard counts, so exact serial equality is only promised
    for failure-free runs.
    """
    spec = harness.spec
    plan = make_plan(spec)
    kind = spec.workload.kind
    flight = getattr(harness, "flight", None)
    shards = [
        _PointShard(
            spec, plan, sid, size, registry=harness.registry,
            flight=flight.fork() if flight is not None else None,
        )
        for sid in range(plan.n_shards)
    ]
    ShardSet(
        plan,
        [s.sim for s in shards],
        [s.network for s in shards],
    ).run()
    if flight is not None:
        flight.absorb(merge_flight_events([s.sim for s in shards]))
    return _merge_point(kind, [s.result() for s in shards])
