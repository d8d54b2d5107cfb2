"""Network topologies and source-route computation.

The paper's testbed connects 16 nodes through a Myrinet-2000 network whose
default hardware topology is a Clos network; at 16 nodes that is a single
crossbar.  Builders here produce single-switch, two-level Clos, line, and
arbitrary (NIC placement plus switch edge list) fabrics.

Myrinet is source-routed: the GM mapper computes one route per pair and
recomputes routes only after a fabric change.  The topology keeps its own
adjacency lists in cabling order.  A NIC has exactly one cable, so its
shortest paths are that cable followed by the shortest paths of the
switch at its other end.  One breadth-first search per such switch, over
live switches and cables, records every equal-distance predecessor; a
route is one of the shortest paths those predecessors spell out, picked
deterministically per pair.  Searches, routes and route latencies are
memoized until the next wiring change or failure transition.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import zlib

from repro.errors import ConfigError, RoutingError
from repro.net.link import Link
from repro.net.switch import CrossbarSwitch, PortRef

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["Topology", "single_switch", "clos", "line", "from_graph"]

_NIC = "nic"
_SWITCH = "switch"


class Topology:
    """A wired fabric: switches, NIC attachment points, directed links.

    Nodes are ``("nic", i)`` or ``("switch", s)``.  Every physical cable
    is two directed :class:`Link` objects.  Routes are link-lists from
    source NIC to destination NIC, memoized.
    """

    def __init__(
        self,
        sim: "Simulator",
        n_nodes: int,
        bandwidth: float,
        link_latency: float,
        hop_latency: float,
        name: str = "topology",
    ):
        if n_nodes < 1:
            raise ConfigError(f"need at least one node, got {n_nodes}")
        self.sim = sim
        self.n_nodes = n_nodes
        self.bandwidth = bandwidth
        self.link_latency = link_latency
        self.hop_latency = hop_latency
        self.name = name
        self.switches: list[CrossbarSwitch] = []
        #: neighbours of every node, in cabling order, failed or not
        self._adj: dict[tuple, list[tuple]] = {
            (_NIC, i): [] for i in range(n_nodes)
        }
        #: directed links keyed by (node, node)
        self._links: dict[tuple, Link] = {}
        #: (src, dst) -> link list.  The fabric probes this dict directly
        #: (:class:`repro.net.fabric.Network`), so it is only ever
        #: cleared in place, never rebound.
        self._route_cache: dict[tuple[int, int], list[Link]] = {}
        self._latency_cache: dict[tuple[int, int], float] = {}
        #: per switch a NIC hangs off: every node it reaches over live
        #: links, mapped to that node's predecessors on shortest paths
        #: from the switch
        self._bfs_cache: dict[tuple, dict[tuple, tuple]] = {}
        #: every distinct predecessor tuple of the memoized searches, so
        #: nodes with the same predecessors share one tuple
        self._pred_tuples: dict[tuple, tuple] = {}
        #: Bumped on every wiring change (:meth:`cable`) and on every
        #: failure transition (:meth:`set_link_state` /
        #: :meth:`set_switch_state`), each of which drops the memos
        #: above.
        self.version = 0
        #: Failed cables (canonical sorted endpoint pairs) and switches.
        #: Routes are computed on the live subgraph; packets already in
        #: flight discover a death at the link they try to claim.
        self._down_edges: set[tuple] = set()
        self._down_switches: set[int] = set()
        self._cables: list[tuple] | None = None

    # -- construction ------------------------------------------------------
    def add_switch(self, radix: int) -> CrossbarSwitch:
        sw = CrossbarSwitch(len(self.switches), radix, self.hop_latency)
        self.switches.append(sw)
        self._adj[(_SWITCH, sw.switch_id)] = []
        return sw

    def cable(self, a: tuple, b: tuple) -> None:
        """Run a full-duplex cable between nodes *a* and *b*.

        A NIC has one port, so a second cable at a NIC is rejected:
        routing relies on every NIC's paths starting with its one cable.
        """
        for endpoint in (a, b):
            if endpoint not in self._adj:
                raise ConfigError(f"unknown endpoint {endpoint!r}")
            if endpoint[0] == _NIC and self._adj[endpoint]:
                raise ConfigError(f"NIC {endpoint[1]} already has a cable")
        if (a, b) in self._links:
            raise ConfigError(f"duplicate cable {a!r} <-> {b!r}")
        self._adj[a].append(b)
        self._adj[b].append(a)
        # A new cable can shorten existing shortest paths: memoized
        # searches, routes and latency sums are stale the moment the
        # fabric grows.
        self._forget_routes()
        self._cables = None
        for u, v in ((a, b), (b, a)):
            # A link terminating at a switch pays that switch's routing
            # (head-arbitration) delay on top of cable propagation.
            latency = self.link_latency
            if v[0] == _SWITCH:
                latency += self.hop_latency
            self._links[(u, v)] = Link(
                self.sim,
                self.bandwidth,
                latency,
                name=f"{u}->{v}",
            )

    def wire_nic_to_switch(self, nic_id: int, switch: CrossbarSwitch) -> None:
        port = switch.free_ports[0] if switch.free_ports else None
        if port is None:
            raise ConfigError(f"switch {switch.switch_id} is full")
        switch.attach(port, PortRef(nic_id, 0))
        self.cable((_NIC, nic_id), (_SWITCH, switch.switch_id))

    def wire_switches(self, a: CrossbarSwitch, b: CrossbarSwitch) -> None:
        pa = a.free_ports[0] if a.free_ports else None
        pb = b.free_ports[0] if b.free_ports else None
        if pa is None or pb is None:
            raise ConfigError("no free ports for inter-switch cable")
        a.attach(pa, PortRef(b, pb))
        b.attach(pb, PortRef(a, pa))
        self.cable((_SWITCH, a.switch_id), (_SWITCH, b.switch_id))

    def close(self) -> None:
        """Teardown: unwire the switches, which name each other, and drop
        the claims waiting for each link."""
        for switch in self.switches:
            switch._peers.clear()
        for link in self._links.values():
            link.close()

    def neighbors(self, node: tuple) -> list[tuple]:
        """Nodes cabled to *node*, in cabling order, failed or not."""
        return self._adj[node]

    # -- failure lifecycle -------------------------------------------------
    def cables(self) -> list[tuple]:
        """All physical cables as sorted canonical endpoint pairs.

        The list order is deterministic (sorted), so an index into it is
        a stable cable identifier — :class:`repro.net.failure.FailureSpec`
        targets cables by this index.
        """
        if self._cables is None:
            self._cables = sorted(
                key for key in self._links if key[0] <= key[1]
            )
        return self._cables

    def nic_cable_index(self, nic_id: int) -> int:
        """Index (into :meth:`cables`) of NIC *nic_id*'s attachment cable."""
        for i, (a, b) in enumerate(self.cables()):
            if (_NIC, nic_id) in (a, b):
                return i
        raise ConfigError(f"NIC {nic_id} has no attachment cable")

    def set_link_state(self, cable_index: int, up: bool) -> bool:
        """Fail or restore the cable at *cable_index*.

        Returns ``True`` when the state actually changed (idempotent
        no-op transitions do not bump :attr:`version`).
        """
        cables = self.cables()
        if not 0 <= cable_index < len(cables):
            raise ConfigError(
                f"cable index {cable_index} out of range "
                f"(topology has {len(cables)} cables)"
            )
        edge = cables[cable_index]
        if up == (edge not in self._down_edges):
            return False
        if up:
            self._down_edges.discard(edge)
        else:
            self._down_edges.add(edge)
        self._state_changed()
        return True

    def set_switch_state(self, switch_id: int, up: bool) -> bool:
        """Fail or restore a whole switch (all its ports go with it)."""
        if not 0 <= switch_id < len(self.switches):
            raise ConfigError(f"unknown switch id {switch_id}")
        if up == (switch_id not in self._down_switches):
            return False
        if up:
            self._down_switches.discard(switch_id)
        else:
            self._down_switches.add(switch_id)
        self._state_changed()
        return True

    def _state_changed(self) -> None:
        """Re-derive per-link flags and invalidate every route memo."""
        down_nodes = {(_SWITCH, s) for s in self._down_switches}
        for (u, v), link in self._links.items():
            edge = tuple(sorted((u, v)))
            link.up = (
                edge not in self._down_edges
                and u not in down_nodes
                and v not in down_nodes
            )
        self._forget_routes()

    def _forget_routes(self) -> None:
        """Drop every search, route and latency memo; bump :attr:`version`."""
        self._bfs_cache.clear()
        self._pred_tuples.clear()
        self._route_cache.clear()
        self._latency_cache.clear()
        self.version += 1

    def link_is_up(self, a: tuple, b: tuple) -> bool:
        return self._links[(a, b)].up

    def has_path(self, src: int, dst: int) -> bool:
        """Whether a live route exists between two NICs right now."""
        if src == dst:
            return True
        if not (0 <= src < self.n_nodes and 0 <= dst < self.n_nodes):
            return False
        reach = self._reach(src)
        return reach is not None and (_NIC, dst) in reach[1]

    def _reach(self, src: int) -> tuple[tuple, dict[tuple, tuple]] | None:
        """The node NIC *src* is cabled to, and that node's search.

        ``None`` when the NIC has no live cable (it, or the switch at its
        other end, is down): the NIC then reaches nothing.
        """
        source = (_NIC, src)
        cabled = self._adj[source]
        if not cabled or not self._links[(source, cabled[0])].up:
            return None
        return cabled[0], self._search(cabled[0])

    def _search(self, root: tuple) -> dict[tuple, tuple]:
        """Breadth-first search from *root* over live links, memoized.

        *root* is the switch a NIC is cabled to, so one search serves
        every NIC on that switch.  Maps every node reachable from *root*
        to all of its predecessors at one hop less from *root*, so the
        shortest paths to a node are exactly its predecessor chains.
        Equal predecessor tuples are one object, shared across searches.
        ``Link.up`` is the live view: :meth:`_state_changed` clears it on
        failed cables and on every cable of a failed switch.
        """
        preds = self._bfs_cache.get(root)
        if preds is not None:
            return preds
        adj, links, shared = self._adj, self._links, self._pred_tuples
        preds = {root: ()}
        frontier = [root]
        while frontier:
            level: dict[tuple, list[tuple]] = {}
            for u in frontier:
                for v in adj[u]:
                    if v in preds or not links[(u, v)].up:
                        continue
                    if v in level:
                        level[v].append(u)
                    else:
                        level[v] = [u]
            for v, us in level.items():
                key = tuple(us)
                preds[v] = shared.setdefault(key, key)
            frontier = level
        self._bfs_cache[root] = preds
        return preds

    # -- routing -------------------------------------------------------------
    def route(self, src: int, dst: int) -> list[Link]:
        """The directed links a packet crosses from NIC *src* to NIC *dst*.

        Routes avoid failed cables and switches — the model's stand-in
        for the GM mapper recomputing source routes after a fabric
        change.  When no live path exists, :class:`RoutingError` is
        raised; the fabric turns that into an injection-time drop.
        """
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        if src == dst:
            raise RoutingError(f"route requested from NIC {src} to itself")
        for nic in (src, dst):
            if not 0 <= nic < self.n_nodes:
                raise RoutingError(f"unknown NIC id {nic}")
        reach = self._reach(src)
        source, target = (_NIC, src), (_NIC, dst)
        if reach is None or target not in reach[1]:
            raise RoutingError(f"no path from NIC {src} to NIC {dst}")
        root, preds = reach
        # Every shortest path, spelled backwards from the target: all of
        # them are the same length, so they reach the root together.
        # The source's own cable comes first on every one of them.
        paths = [[target]]
        while paths[0][-1] != root:
            paths = [path + [u] for path in paths for u in preds[path[-1]]]
        paths = [[source, *path[::-1]] for path in paths]
        # Myrinet source routes are computed once and dispersed across
        # equal-cost paths (spine switches in a Clos); pick one
        # deterministically per pair so traffic does not funnel through
        # a single spine.
        paths.sort()
        digest = zlib.crc32(f"{src}->{dst}".encode())
        nodes = paths[digest % len(paths)]
        links = [self._links[(u, v)] for u, v in zip(nodes, nodes[1:])]
        self._route_cache[key] = links
        return links

    def route_latency(self, src: int, dst: int) -> float:
        """Summed head latency of the src→dst route, memoized.

        The per-pair sum is static (source routes never change), so hot
        paths such as :meth:`Network.min_latency` avoid re-walking the
        link list per packet.
        """
        key = (src, dst)
        cached = self._latency_cache.get(key)
        if cached is None:
            cached = sum(link.latency for link in self.route(src, dst))
            self._latency_cache[key] = cached
        return cached

    def hops(self, src: int, dst: int) -> int:
        """Number of links on the src→dst route."""
        return len(self.route(src, dst))

    def switch_count(self) -> int:
        return len(self.switches)

    def all_links(self) -> list[Link]:
        return list(self._links.values())

    def validate(self) -> None:
        """Check every NIC can reach every other NIC."""
        for src in range(self.n_nodes):
            for dst in range(self.n_nodes):
                if src != dst:
                    self.route(src, dst)

    def __repr__(self) -> str:
        return (
            f"<Topology {self.name!r} nodes={self.n_nodes} "
            f"switches={len(self.switches)} links={len(self._links)}>"
        )


def single_switch(
    sim: "Simulator",
    n_nodes: int,
    bandwidth: float,
    link_latency: float,
    hop_latency: float,
) -> Topology:
    """All NICs on one crossbar — Myrinet's topology for ≤16 nodes."""
    topo = Topology(
        sim, n_nodes, bandwidth, link_latency, hop_latency, name="single-switch"
    )
    sw = topo.add_switch(radix=max(n_nodes, 2))
    for i in range(n_nodes):
        topo.wire_nic_to_switch(i, sw)
    return topo


def clos(
    sim: "Simulator",
    n_nodes: int,
    bandwidth: float,
    link_latency: float,
    hop_latency: float,
    radix: int = 16,
) -> Topology:
    """A two-level Clos (fat-tree) of radix-``radix`` crossbars.

    Each leaf switch hosts ``radix // 2`` NICs and has ``radix // 2``
    uplinks, one to every spine switch — the standard full-bisection
    Myrinet-2000 Clos.  Falls back to a single switch when everything fits
    on one crossbar (which is the paper's 16-node case).
    """
    if radix < 4 or radix % 2:
        raise ConfigError(f"clos radix must be even and >= 4, got {radix}")
    if n_nodes <= radix:
        return single_switch(sim, n_nodes, bandwidth, link_latency, hop_latency)
    half = radix // 2
    n_leaves = -(-n_nodes // half)  # ceil
    topo = Topology(
        sim, n_nodes, bandwidth, link_latency, hop_latency, name="clos"
    )
    leaves = [topo.add_switch(radix) for _ in range(n_leaves)]
    spines = [topo.add_switch(max(n_leaves, 2)) for _ in range(half)]
    for i in range(n_nodes):
        topo.wire_nic_to_switch(i, leaves[i // half])
    for leaf in leaves:
        for spine in spines:
            topo.wire_switches(leaf, spine)
    return topo


def line(
    sim: "Simulator",
    n_nodes: int,
    bandwidth: float,
    link_latency: float,
    hop_latency: float,
    nodes_per_switch: int = 4,
) -> Topology:
    """Switches in a chain — a worst-case diameter topology for stress tests."""
    if nodes_per_switch < 1:
        raise ConfigError("nodes_per_switch must be >= 1")
    n_switches = -(-n_nodes // nodes_per_switch)
    topo = Topology(sim, n_nodes, bandwidth, link_latency, hop_latency, name="line")
    switches = [topo.add_switch(nodes_per_switch + 2) for _ in range(n_switches)]
    for i in range(n_nodes):
        topo.wire_nic_to_switch(i, switches[i // nodes_per_switch])
    for a, b in zip(switches, switches[1:]):
        topo.wire_switches(a, b)
    return topo


def from_graph(
    sim: "Simulator",
    nic_to_switch: dict[int, int],
    switch_edges: Iterable[tuple[int, int]],
    bandwidth: float,
    link_latency: float,
    hop_latency: float,
    radix: int = 32,
) -> Topology:
    """Build an arbitrary fabric from NIC→switch placement and switch edges."""
    n_nodes = len(nic_to_switch)
    if sorted(nic_to_switch) != list(range(n_nodes)):
        raise ConfigError("nic ids must be 0..n-1")
    topo = Topology(sim, n_nodes, bandwidth, link_latency, hop_latency, name="custom")
    n_switches = max(nic_to_switch.values()) + 1
    switches = [topo.add_switch(radix) for _ in range(n_switches)]
    for nic, sw in sorted(nic_to_switch.items()):
        topo.wire_nic_to_switch(nic, switches[sw])
    for a, b in switch_edges:
        topo.wire_switches(switches[a], switches[b])
    return topo
