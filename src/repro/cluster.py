"""The cluster façade: build a whole simulated system in one call.

>>> from repro.cluster import Cluster
>>> from repro.config import ClusterConfig
>>> cluster = Cluster(ClusterConfig(n_nodes=8))
>>> # drive host programs with cluster.spawn / cluster.run

The cluster owns the simulator, topology, network, and nodes, opens GM
port 0 on every node, and preposts receive tokens so experiments start
from the paper's steady state.

Whoever builds a cluster closes it once its results are read
(:meth:`Cluster.close`, or a ``with`` block), so reference counting,
not the cyclic garbage collector, frees it.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.config import ClusterConfig
from repro.gm.api import GMPort
from repro.host.node import Node
from repro.net.fabric import Network
from repro.net.failure import FailureInjector
from repro.net.fault import LossModel
from repro.net.topology import Topology, clos, line, single_switch
from repro.sim.engine import Simulator
from repro.sim.events import SimEvent
from repro.sim.process import Process

__all__ = ["Cluster", "build_topology"]


def build_topology(sim: Simulator, cfg: ClusterConfig) -> Topology:
    """The fabric a :class:`ClusterConfig` describes, on *sim*.

    Module-level so a scratch fabric (fig8 and fig9 look up the cables
    their failure specs name) costs no nodes, ports, or prepost tokens.
    """
    cost = cfg.cost
    args = (
        sim,
        cfg.n_nodes,
        cost.wire_bandwidth,
        cost.link_latency,
        cost.switch_hop_latency,
    )
    if cfg.topology == "single":
        return single_switch(*args)
    if cfg.topology == "clos":
        return clos(*args, radix=cfg.clos_radix)
    return line(*args)


class Cluster:
    """A complete simulated system."""

    def __init__(
        self,
        config: ClusterConfig | None = None,
        loss: LossModel | None = None,
    ):
        self.config = config or ClusterConfig()
        cfg = self.config
        self.cost = cfg.cost
        self.sim = Simulator(seed=cfg.seed, trace=cfg.trace)
        self.topology = build_topology(self.sim, cfg)
        if loss is None and cfg.loss is not None:
            # The declarative spec in the config (serializable scenarios);
            # an explicit model argument wins (tests with ScriptedLoss).
            loss = cfg.loss.build()
        self.network = Network(self.sim, self.topology, loss=loss)
        #: Topology-failure lifecycle (``None`` on the perfect fabric).
        self.failures: FailureInjector | None = (
            FailureInjector(self.sim, self.topology, cfg.failures)
            if cfg.failures is not None and cfg.failures.kind != "none"
            else None
        )
        self.nodes: list[Node] = [
            Node(self.sim, i, cfg.cost, self.network)
            for i in range(cfg.n_nodes)
        ]
        self.ports: list[GMPort] = [node.open_port(0) for node in self.nodes]
        for port in self.ports:
            port.prepost_recv_tokens(cfg.prepost_recv_tokens)

    # -- convenience ----------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return self.config.n_nodes

    def node(self, i: int) -> Node:
        return self.nodes[i]

    def port(self, i: int) -> GMPort:
        return self.ports[i]

    def spawn(
        self, generator: Generator, name: str | None = None
    ) -> Process:
        """Start a host program (or any process) on the simulator."""
        return self.sim.process(generator, name=name)

    def spawn_on_all(
        self, make_program: Callable[[Node], Generator]
    ) -> list[Process]:
        """One process per node, built by ``make_program(node)``."""
        return [
            self.spawn(make_program(node), name=f"prog[{node.id}]")
            for node in self.nodes
        ]

    def run(self, until: float | SimEvent | None = None) -> Any:
        return self.sim.run(until=until)

    def close(self) -> None:
        """Break every reference cycle the layers built; the cluster
        cannot run afterwards.  The simulator closes last, dropping what
        ending the other layers' processes queued.
        """
        for node in self.nodes:
            node.close()
        self.network.close()
        self.topology.close()
        if self.failures is not None:
            self.failures.close()
        self.sim.close()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    @property
    def now(self) -> float:
        return self.sim.now

    def __repr__(self) -> str:
        return (
            f"<Cluster n={self.n_nodes} topology={self.config.topology} "
            f"t={self.sim.now:.1f}us>"
        )
