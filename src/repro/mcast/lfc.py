"""The LFC baseline: NIC-level hop-by-hop credit flow control.

"LFC provides link-level point-to-point flow control with NIC-level
credits.  But it is deadlock prone since a multicast packet may be
injected into the network by the root, while an intermediate NIC is
running out of credits to forward the message" (paper §2).

This module is a *minimal faithful* model of the failure mode, not a
full LFC reimplementation.  A credit is a reservation of a buffer in the
receiving NIC's shared pool; a forwarding NIC keeps its buffer occupied
until it has obtained credits for (and sent to) all of its children.
Two concurrent multicasts whose trees forward in opposite directions
between a pair of saturated nodes then hold their last buffers while
each waits for the other's — a circular wait.

The paper's scheme avoids this two ways, both demonstrable here: it
uses no credits at all (ack/timeout instead), and its ID-ordered trees
make every buffer wait point from a smaller to a larger node ID, which
cannot cycle (see ``test_id_ordered_trees_never_deadlock_lfc``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.errors import CreditError, DeadlockDetected
from repro.sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.sim.process import Process
    from repro.trees.base import SpanningTree

__all__ = ["LFCNode", "LFCFabric", "run_lfc_multicasts"]


@dataclass
class _Wait:
    mcast_id: int
    on_node: int


class LFCNode:
    """One NIC with a shared receive-buffer pool."""

    def __init__(self, fabric: "LFCFabric", node_id: int, n_buffers: int):
        self.sim = fabric.sim
        self.id = node_id
        #: free buffer slots; a sender takes one (a "credit") per packet
        self.pool = Store(self.sim, name=f"lfc[{node_id}].pool")
        for i in range(n_buffers):
            self.pool.put(i)
        self.delivered: list[int] = []
        #: mcast_id -> node whose pool this node is currently waiting on
        self.waiting: dict[int, int] = {}


class LFCFabric:
    """Nodes + credit-gated hop-by-hop multicast forwarding."""

    def __init__(self, sim: "Simulator", n_nodes: int, n_buffers: int = 1,
                 hop_time: float = 5.0):
        if n_buffers < 1:
            raise CreditError("need at least one buffer per node")
        self.sim = sim
        self.hop_time = hop_time
        self.nodes = [LFCNode(self, i, n_buffers) for i in range(n_nodes)]
        self._procs: list["Process"] = []

    def _spawn(self, gen: Generator, name: str) -> "Process":
        proc = self.sim.process(gen, name=name)
        self._procs.append(proc)
        return proc

    def close(self) -> None:
        """End the processes still waiting on a pool (a deadlock's
        waiters), which would otherwise hold themselves in cycles."""
        for proc in self._procs:
            if proc.is_alive:
                proc.close()

    def multicast(self, mcast_id: int, tree: "SpanningTree") -> Generator:
        """Root-side injection process for one multicast.

        The root sends from its own send queue (no receive buffer held),
        exactly why "the root node in a broadcast operation ... will not
        be in such a cycle" (paper §5).
        """
        yield from self._forward(mcast_id, tree, tree.root, holds_buffer=False)

    def _forward(
        self, mcast_id: int, tree: "SpanningTree", at: int, holds_buffer: bool
    ) -> Generator:
        node = self.nodes[at]
        for child in tree.children_of(at):
            node.waiting[mcast_id] = child
            slot = yield self.nodes[child].pool.get()
            node.waiting.pop(mcast_id, None)
            yield self.sim.timeout(self.hop_time)
            self._spawn(
                self._receive(mcast_id, tree, child, slot),
                f"lfc_rx[{child}]#{mcast_id}",
            )

    def _receive(
        self, mcast_id: int, tree: "SpanningTree", at: int, slot
    ) -> Generator:
        node = self.nodes[at]
        node.delivered.append(mcast_id)
        # Forward while occupying the pool slot the sender reserved:
        # LFC keeps the packet in the buffer it arrived in until every
        # child copy has left (obtained ITS downstream reservations).
        yield from self._forward(mcast_id, tree, at, holds_buffer=True)
        node.pool.put(slot)

    # -- analysis -------------------------------------------------------------
    def wait_graph(self) -> dict[int, set[int]]:
        """node -> set of nodes whose pool it is currently waiting on."""
        graph: dict[int, set[int]] = {}
        for node in self.nodes:
            for _mcast, target in node.waiting.items():
                graph.setdefault(node.id, set()).add(target)
        return graph

    def has_cyclic_wait(self) -> bool:
        """True if the buffer-wait graph contains a cycle.

        Note the wait edge node→child is a proxy for "holder of a slot
        at *node* waits for a slot at *child*"; with ID-ordered trees
        all such edges (from non-roots) go small→large and cannot cycle.
        """
        graph = self.wait_graph()

        def reaches_self(start: int) -> bool:
            seen: set[int] = set()
            stack = list(graph.get(start, ()))
            while stack:
                cur = stack.pop()
                if cur == start:
                    return True
                if cur in seen:
                    continue
                seen.add(cur)
                stack.extend(graph.get(cur, ()))
            return False

        return any(reaches_self(node) for node in graph)


def run_lfc_multicasts(
    sim: "Simulator",
    n_nodes: int,
    trees: list["SpanningTree"],
    n_buffers: int = 1,
    horizon: float = 10_000.0,
) -> LFCFabric:
    """Run concurrent LFC multicasts; raise on credit deadlock.

    Returns the fabric for inspection.  Raises
    :class:`DeadlockDetected` if the simulation quiesces with multicasts
    incomplete — the scenario the paper's scheme is immune to — after
    ending the processes left waiting.
    """
    fabric = LFCFabric(sim, n_nodes, n_buffers=n_buffers)
    procs = [
        fabric._spawn(fabric.multicast(i, tree), f"lfc_mcast#{i}")
        for i, tree in enumerate(trees)
    ]
    sim.run(until=horizon)
    stuck = [p for p in procs if p.is_alive]
    blocked = {n.id: dict(n.waiting) for n in fabric.nodes if n.waiting}
    if stuck or blocked:
        if fabric.has_cyclic_wait():
            message = f"LFC credit deadlock: circular wait {fabric.wait_graph()}"
        else:
            message = (
                f"LFC multicasts stalled without completing (blocked: {blocked})"
            )
        fabric.close()
        raise DeadlockDetected(message)
    return fabric
