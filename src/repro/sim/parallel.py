"""Conservative-parallel simulation: shards, lookahead, safe windows.

The datacenter-regime experiments (256-node serving fabrics, 1024-node
Clos multicasts) are wall-clock-bound on one core.  This module
partitions a :class:`~repro.net.topology.Topology`'s simulation state —
NICs, switches, and the directed links between them — into *shards*,
runs one :class:`~repro.sim.engine.Simulator` per shard, and
synchronizes them with the classic conservative (Chandy–Misra / PPT
``minDelay``) barrier: link propagation delay is the lookahead.

**Ownership.**  Every directed link has exactly one owner shard, so its
contention state (claims, releases, FIFO queue) is only ever touched on
that shard; replicas on other shards stay idle:

* a link adjacent to a NIC (either direction) belongs to that NIC's
  shard — injection starts locally and final delivery runs where the
  destination NIC's sinks live;
* a switch→switch link belongs to the source switch's owner (leaf
  switches go to the majority shard of their attached NICs, pure spine
  switches round-robin).

A cut-through traversal (:class:`repro.net.fabric._Traversal`) walks
link by link; when the *next* link on the route is owned by another
shard, the hop becomes a timestamped inter-shard message, resumed on
the owner at exactly the instant the local claim callback would have
run.  Because a "next link" always begins at a switch, the link just
crossed terminated at that switch and therefore carried the switch
hop latency — every handoff is announced at least ``link_latency +
switch_hop_latency`` ahead of its due time.

**Safe windows.**  With lookahead ``L = min`` latency over *cut feeder*
links (links that can precede a cross-shard hop), all events in
``[t_min, t_min + L)`` — where ``t_min`` is the global minimum next
event time — are causally independent across shards: any message a
shard emits inside the window is due at or after the window's end.
:class:`ShardSet` repeatedly grants that window to every shard
(:meth:`Simulator.run_window` processes strictly-before-horizon
events), then exchanges the accumulated messages.

Intra-shard traffic never notices any of this: the Kernel v3 fast paths
(``claim_fast``, inlined heap pushes, now-queues, the timer wheel) run
unchanged, and an unpartitioned :class:`~repro.net.fabric.Network`
costs one ``None`` check per packet hop.

**Exactness.**  Event timestamps are exact, not approximate.  The one
divergence from serial execution is tie-breaking between events on
*different* shards scheduled for the same ``(time, priority)`` — the
serial kernel orders those by global insertion sequence, which no
partitioned execution can reproduce.  The pinned determinism proofs
(golden trace, quick fig tables, serving snapshot) contain no such
cross-shard ties; the regression tests re-verify this by byte-comparing
partitioned and serial outputs.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Iterable

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.fabric import Network
    from repro.net.topology import Topology
    from repro.sim.engine import Simulator
    from repro.sim.trace import TraceRecord

__all__ = [
    "PARTITIONERS",
    "PartitionPlan",
    "ShardSet",
    "merge_flight_events",
    "merge_traces",
]

_NIC = "nic"
_SWITCH = "switch"
_INF = float("inf")

#: Registered node-set partitioners (see :meth:`PartitionPlan.from_topology`).
PARTITIONERS = ("contiguous", "switch_affine")


def _contiguous(topo: "Topology", n_shards: int, seed: int) -> list[int]:
    """Balanced contiguous id ranges: shard of node i = i*k // n."""
    n = topo.n_nodes
    return [i * n_shards // n for i in range(n)]


def _switch_affine(topo: "Topology", n_shards: int, seed: int) -> list[int]:
    """Keep each leaf switch's NICs adjacent; split contiguously.

    Nodes are ordered leaf switch by leaf switch (leaf visit order
    rotated by ``seed``), then that order is cut into ``n_shards``
    balanced contiguous ranges — so at most ``n_shards - 1`` leaf
    groups straddle a shard boundary, shard sizes never differ by more
    than one, and no shard can come out empty (unlike a
    whole-leaf-per-shard greedy pack, which degenerates when there are
    fewer leaves than shards, e.g. any single-switch fabric).
    """
    leaf_nics: dict[int, list[int]] = {}
    isolated: list[int] = []
    for i in range(topo.n_nodes):
        attached = [
            nbr for nbr in topo.neighbors((_NIC, i))
            if nbr[0] == _SWITCH
        ]
        if attached:
            leaf_nics.setdefault(min(a[1] for a in attached), []).append(i)
        else:
            isolated.append(i)
    leaves = sorted(leaf_nics)
    if leaves:
        rot = seed % len(leaves)
        leaves = leaves[rot:] + leaves[:rot]
    ordered = [nic for leaf in leaves for nic in leaf_nics[leaf]]
    ordered.extend(isolated)
    n = len(ordered)
    owner = [0] * topo.n_nodes
    for pos, nic in enumerate(ordered):
        owner[nic] = pos * n_shards // n
    return owner


_PARTITIONER_FNS = {
    "contiguous": _contiguous,
    "switch_affine": _switch_affine,
}


class PartitionPlan:
    """A deterministic assignment of topology state to shards.

    Build one with :meth:`from_topology`; the same ``(topology shape,
    n_shards, partitioner, seed)`` always yields the same plan, so every
    shard derives identical ownership from its own topology replica.
    """

    def __init__(
        self,
        n_nodes: int,
        n_shards: int,
        node_to_shard: tuple[int, ...],
        switch_owner: tuple[int, ...],
        lookahead: float,
        n_cut_links: int,
        partitioner: str,
        seed: int,
    ):
        self.n_nodes = n_nodes
        self.n_shards = n_shards
        self.node_to_shard = node_to_shard
        self.switch_owner = switch_owner
        #: Minimum latency over cut feeder links — the safe-window width.
        self.lookahead = lookahead
        self.n_cut_links = n_cut_links
        self.partitioner = partitioner
        self.seed = seed

    # -- construction ------------------------------------------------------
    @classmethod
    def from_topology(
        cls,
        topo: "Topology",
        n_shards: int,
        partitioner: str = "switch_affine",
        seed: int = 0,
    ) -> "PartitionPlan":
        if n_shards < 1:
            raise ConfigError(f"need at least one shard, got {n_shards}")
        if n_shards > topo.n_nodes:
            raise ConfigError(
                f"{n_shards} shards cannot all be non-empty with "
                f"{topo.n_nodes} nodes"
            )
        try:
            fn = _PARTITIONER_FNS[partitioner]
        except KeyError:
            raise ConfigError(
                f"unknown partitioner {partitioner!r}; "
                f"pick one of {PARTITIONERS}"
            ) from None
        node_to_shard = fn(topo, n_shards, seed)
        if len(set(node_to_shard)) != n_shards:
            raise ConfigError(
                f"partitioner {partitioner!r} left a shard empty "
                f"({n_shards} shards over {topo.n_nodes} nodes)"
            )
        switch_owner = cls._assign_switches(topo, node_to_shard, n_shards)
        plan = cls(
            n_nodes=topo.n_nodes,
            n_shards=n_shards,
            node_to_shard=tuple(node_to_shard),
            switch_owner=tuple(switch_owner),
            lookahead=_INF,
            n_cut_links=0,
            partitioner=partitioner,
            seed=seed,
        )
        plan.lookahead, plan.n_cut_links = plan._cut_scan(topo)
        if n_shards > 1 and plan.n_cut_links and plan.lookahead <= 0.0:
            raise ConfigError(
                "cannot partition a topology with zero-latency cut links "
                "(no conservative lookahead window exists)"
            )
        return plan

    @staticmethod
    def _assign_switches(
        topo: "Topology", node_to_shard: list[int], n_shards: int
    ) -> list[int]:
        """Leaf switches follow their NIC majority; spines round-robin."""
        owner = []
        for sw in topo.switches:
            attached = [
                nbr[1]
                for nbr in topo.neighbors((_SWITCH, sw.switch_id))
                if nbr[0] == _NIC
            ]
            if attached:
                votes: dict[int, int] = {}
                for nic in attached:
                    votes[node_to_shard[nic]] = (
                        votes.get(node_to_shard[nic], 0) + 1
                    )
                owner.append(
                    min(votes, key=lambda s: (-votes[s], s))
                )
            else:
                owner.append(sw.switch_id % n_shards)
        return owner

    # -- ownership ---------------------------------------------------------
    def owner_of(self, graph_node: tuple) -> int:
        """Shard owning a graph node (``("nic", i)`` or ``("switch", s)``)."""
        kind, idx = graph_node
        if kind == _NIC:
            return self.node_to_shard[idx]
        return self.switch_owner[idx]

    def link_owner(self, key: tuple) -> int:
        """Shard owning the directed link *key* ``(u, v)``.

        NIC-adjacent links follow the NIC (injection and delivery are
        local); switch→switch links follow the source switch.
        """
        u, v = key
        if u[0] == _NIC:
            return self.node_to_shard[u[1]]
        if v[0] == _NIC:
            return self.node_to_shard[v[1]]
        return self.switch_owner[u[1]]

    def shard_nodes(self, shard: int) -> list[int]:
        return [
            i for i, s in enumerate(self.node_to_shard) if s == shard
        ]

    def shard_sizes(self) -> list[int]:
        sizes = [0] * self.n_shards
        for s in self.node_to_shard:
            sizes[s] += 1
        return sizes

    def _cut_scan(self, topo: "Topology") -> tuple[float, int]:
        """``(lookahead, cut link count)`` — O(cut), memoized per wiring.

        A *cut feeder* is a directed link ``(u, v)`` into a switch with
        at least one onward link ``(v, w)`` owned by a different shard:
        the link whose latency delays every cross-shard handoff
        announcement.  The scan walks the link table once (O(links),
        re-examining only switch adjacencies — O(cut) work on the links
        that matter) and is cached on the topology keyed by its wiring
        ``version``, so repeated plan construction over an unchanged
        fabric costs one dict probe; ``cable()`` bumps the version and
        invalidates it.
        """
        cache_key = (
            topo.version, self.n_shards, self.node_to_shard,
            self.switch_owner,
        )
        cache = getattr(topo, "_partition_cut_cache", None)
        if cache is None:
            cache = topo._partition_cut_cache = {}
        hit = cache.get(cache_key)
        if hit is not None:
            return hit
        lookahead = _INF
        n_cut = 0
        for (u, v), link in topo._links.items():
            if v[0] != _SWITCH:
                continue
            owner = self.link_owner((u, v))
            for w in topo.neighbors(v):
                if w == u:
                    continue
                if self.link_owner((v, w)) != owner:
                    n_cut += 1
                    if link.latency < lookahead:
                        lookahead = link.latency
                    break
        result = (lookahead, n_cut)
        cache.clear()  # one wiring version is ever live per topology
        cache[cache_key] = result
        return result

    def bind(self, topo: "Topology") -> None:
        """Stamp every link replica in *topo* with its owner shard."""
        for key, link in topo._links.items():
            link.owner = self.link_owner(key)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PartitionPlan shards={self.n_shards} "
            f"partitioner={self.partitioner!r} sizes={self.shard_sizes()} "
            f"lookahead={self.lookahead}us cut={self.n_cut_links}>"
        )


class ShardSet:
    """Drives N shard simulators through conservative safe windows.

    Shards run their windows one after another in shard order, in one
    process.  Windows are causally independent, so that order cannot
    change what any shard computes.
    """

    def __init__(
        self,
        plan: PartitionPlan,
        sims: list["Simulator"],
        networks: list["Network"],
    ):
        if len(sims) != plan.n_shards or len(networks) != plan.n_shards:
            raise ConfigError(
                f"plan has {plan.n_shards} shards, got {len(sims)} sims "
                f"and {len(networks)} networks"
            )
        self.plan = plan
        self.sims = sims
        self.networks = networks
        self._pending: list[list[tuple]] = [[] for _ in sims]
        self.windows = 0
        self.messages = 0
        for shard_id, net in enumerate(networks):
            net.bind_partition(shard_id, self._post)

    def _post(self, dest: int, when: float, packet: Any, hop: int) -> None:
        self._pending[dest].append((when, packet, hop))

    def _exchange(self) -> None:
        pending = self._pending
        for dest, msgs in enumerate(pending):
            if not msgs:
                continue
            # Stable sort by due time: messages arriving at the same
            # instant keep source-shard run order — deterministic.
            msgs.sort(key=lambda m: m[0])
            net = self.networks[dest]
            for when, packet, hop in msgs:
                net.accept_handoff(when, packet, hop)
            self.messages += len(msgs)
            pending[dest] = []

    def run(self, until: float | None = None) -> None:
        """Advance all shards to quiescence (or through *until*).

        With ``until``, events up to and including that instant are
        processed and every clock ends at ``until`` — the same contract
        as serial ``Simulator.run(until=float)``.
        """
        sims = self.sims
        lookahead = self.plan.lookahead
        # Events exactly at `until` belong to the run; the first float
        # beyond it is the exclusive window bound.
        stop = math.inf if until is None else math.nextafter(until, math.inf)
        self._exchange()
        while True:
            t = min(sim.peek() for sim in sims)
            if t == _INF or t >= stop:
                break
            horizon = t + lookahead
            if horizon > stop:
                horizon = stop
            for sim in sims:
                sim.run_window(horizon)
            self.windows += 1
            self._exchange()
        if until is not None:
            for sim in sims:
                sim.run(until=until)

    @property
    def events_processed(self) -> int:
        return sum(sim.events_processed for sim in self.sims)


def merge_traces(sims: Iterable["Simulator"]) -> list["TraceRecord"]:
    """All shards' trace records in global time order.

    Within one shard, records keep append (= processing) order; across
    shards, same-time records order by shard id.  For workloads whose
    same-time records never span shards (the pinned golden workload —
    asserted by its regression test), this reproduces the serial trace
    exactly.
    """
    merged: list[tuple[float, int, int, Any]] = []
    for shard_id, sim in enumerate(sims):
        merged.extend(
            (rec.time, shard_id, i, rec)
            for i, rec in enumerate(sim.trace.records)
        )
    merged.sort(key=lambda item: (item[0], item[1], item[2]))
    return [item[3] for item in merged]


def merge_flight_events(sims: Iterable["Simulator"]) -> list[Any]:
    """All shards' flight-recorder hop events in global time order.

    Duck-typed over each shard's ``sim.flight`` slot (shards without a
    recorder contribute nothing); same ordering contract as
    :func:`merge_traces` — append order within a shard, shard id on
    ties.  Trace ids are per-origin allocations
    (:mod:`repro.obs.flight`), so the merged stream needs no renumbering
    whatever the shard count.
    """
    merged: list[tuple[float, int, int, Any]] = []
    for shard_id, sim in enumerate(sims):
        fr = getattr(sim, "flight", None)
        if fr is None:
            continue
        merged.extend(
            (ev[0], shard_id, i, ev) for i, ev in enumerate(fr.events)
        )
    merged.sort(key=lambda item: (item[0], item[1], item[2]))
    return [item[3] for item in merged]
