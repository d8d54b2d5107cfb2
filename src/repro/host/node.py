"""A node: host + NIC + GM engine, wired to the network."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.gm.memory import RegisteredMemory
from repro.gm.protocol import GMEngine
from repro.host.process import Host
from repro.nic.lanai import NIC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gm.api import GMPort
    from repro.gm.params import GMCostModel
    from repro.net.fabric import Network
    from repro.sim.engine import Simulator

__all__ = ["Node"]


class Node:
    """One cluster node.

    "A node in a network consists of the host and the NIC" (paper §2).
    The node owns the registered-memory registry shared by its GM engine
    and whatever higher layers (multicast, MPI) attach to it.
    """

    def __init__(
        self,
        sim: "Simulator",
        node_id: int,
        cost: "GMCostModel",
        network: "Network",
    ):
        self.sim = sim
        self.id = node_id
        self.cost = cost
        self.host = Host(sim, node_id, cost)
        self.nic = NIC(sim, node_id, cost, network)
        self.memory = RegisteredMemory(node_id)
        self.gm = GMEngine(self.nic, self.memory)
        # The paper's firmware extension rides alongside GM on every NIC.
        from repro.mcast.engine import McastEngine

        self.mcast = McastEngine(self)
        # Future-work extension: NIC-based collectives over group trees.
        from repro.coll.engine import CollectiveEngine

        self.coll = CollectiveEngine(self)

    def close(self) -> None:
        """Teardown: break the cycles of this node's NIC and engines."""
        self.nic.close()
        self.gm.close()
        self.mcast.close()

    def open_port(self, port_num: int = 0, owner: Any = None) -> "GMPort":
        """Open a GM port; defaults to owned by this node's host."""
        return self.gm.create_port(port_num, owner if owner is not None else self.host)

    def __repr__(self) -> str:
        return f"<Node {self.id}>"
