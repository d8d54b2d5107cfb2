"""Communicators and per-rank MPI context."""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.errors import MPIError
from repro.gm.api import RecvCompletion
from repro.mpi import barrier as _barrier
from repro.mpi import bcast as _bcast
from repro.mpi import p2p as _p2p

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster import Cluster
    from repro.sim.process import Process

__all__ = ["Communicator", "RankContext", "ANY_SOURCE", "ANY_TAG"]

ANY_SOURCE = -1
ANY_TAG = -1

_comm_ids = count(1)


class Communicator:
    """A set of ranks mapped onto cluster nodes.

    >>> comm = Communicator(cluster)            # all nodes, rank == node
    >>> comm.run(program)                        # program(ctx) per rank
    """

    def __init__(
        self,
        cluster: "Cluster",
        node_of_rank: list[int] | None = None,
        nic_bcast: bool = True,
        nic_bcast_rdma: bool = False,
    ):
        self.cluster = cluster
        self.node_of_rank = (
            list(node_of_rank)
            if node_of_rank is not None
            else list(range(cluster.n_nodes))
        )
        if len(set(self.node_of_rank)) != len(self.node_of_rank):
            raise MPIError("a node may host at most one rank per communicator")
        for node in self.node_of_rank:
            if not 0 <= node < cluster.n_nodes:
                raise MPIError(f"unknown node {node}")
        self.comm_id = next(_comm_ids)
        #: use the NIC-based broadcast for eager-sized messages
        self.nic_bcast = nic_bcast
        #: extension: use the rendezvous NIC-based broadcast beyond the
        #: eager limit too (the paper's "remote DMA" future work)
        self.nic_bcast_rdma = nic_bcast_rdma
        self.size = len(self.node_of_rank)
        self.rank_of_node = {n: r for r, n in enumerate(self.node_of_rank)}
        self.ranks = [RankContext(self, r) for r in range(self.size)]
        #: demand-created broadcast groups (root rank -> group id), as
        #: known by the root — introspection only; each rank tracks its
        #: own knowledge in ``RankContext.bcast_groups`` (a rank must
        #: not act on a group before its membership message arrives).
        self.bcast_groups: dict[int, int] = {}

    def close(self) -> None:
        """Drop the rank contexts, which refer back here."""
        self.ranks.clear()

    def context(self, rank: int) -> "RankContext":
        return self.ranks[rank]

    def run(
        self,
        program: Callable[["RankContext"], Generator],
        ranks: list[int] | None = None,
    ) -> list["Process"]:
        """Spawn ``program(ctx)`` on every rank (or the given subset) and
        run the simulation until all of them finish."""
        targets = ranks if ranks is not None else range(self.size)
        procs = [
            self.cluster.spawn(
                program(self.ranks[r]), name=f"mpi[{r}]"
            )
            for r in targets
        ]
        self.cluster.run(until=self.cluster.sim.all_of(procs))
        return procs

    def spawn(
        self, rank: int, generator: Generator
    ) -> "Process":
        return self.cluster.spawn(generator, name=f"mpi[{rank}]")


class RankContext:
    """One rank's MPI world: p2p, collectives, and time accounting."""

    def __init__(self, comm: Communicator, rank: int):
        self.comm = comm
        self.rank = rank
        self.node = comm.cluster.node(comm.node_of_rank[rank])
        self.port = comm.cluster.port(comm.node_of_rank[rank])
        self.sim = comm.cluster.sim
        self.cost = comm.cluster.cost
        #: eager messages that arrived before their recv was posted
        self.unexpected: list[dict] = []
        #: multicast completions not yet claimed, by group id
        self.group_pending: dict[int, list[RecvCompletion]] = {}
        #: broadcast groups this rank has joined: root rank -> group id
        self.bcast_groups: dict[int, int] = {}
        #: cumulative wall time spent blocked inside MPI_Bcast, µs —
        #: the paper's "host CPU time" metric for the skew experiments.
        self.bcast_cpu_time = 0.0
        self.bcast_calls = 0
        self._barrier_epoch = 0

    # -- plumbing ---------------------------------------------------------
    def _pump(self) -> Generator[Any, Any, RecvCompletion]:
        """Take the next completion off the GM port (host cost paid).

        MPICH-GM recycles its internal receive buffers: every consumed
        message is immediately replaced by a fresh preposted buffer, so
        the NIC never starves for receive tokens in steady state.
        """
        completion = yield from self.port.receive()
        yield from self.port.provide_receive_buffer()
        return completion

    def _stash(self, completion: RecvCompletion) -> None:
        if completion.group is not None:
            self.group_pending.setdefault(completion.group, []).append(
                completion
            )
        else:
            self.unexpected.append(
                {"completion": completion, **completion.info.get("mpi", {})}
            )

    # -- application-facing API --------------------------------------------------
    def compute(self, duration: float) -> Generator:
        """Application compute time on the host CPU."""
        yield from self.node.host.compute(duration)

    def send(self, dest: int, size: int, tag: int = 0,
             payload: Any = None) -> Generator:
        """Blocking standard-mode send (eager or rendezvous by size)."""
        yield from _p2p.send(self, dest, size, tag, payload)

    def recv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Generator[Any, Any, dict]:
        """Blocking receive; returns the message envelope dict."""
        result = yield from _p2p.recv(self, source, tag)
        return result

    def barrier(self, nic: bool = False) -> Generator:
        """Blocking barrier: dissemination (default) or NIC-based."""
        if nic:
            from repro.mpi import reduce as _reduce

            yield from _reduce.nic_barrier(self)
            return
        self._barrier_epoch += 1
        yield from _barrier.barrier(self, self._barrier_epoch)

    def allreduce(
        self, value: Any, op: str = "sum", nic: bool = False
    ) -> Generator[Any, Any, Any]:
        """Blocking allreduce; ``nic=True`` combines on the LANais."""
        from repro.mpi import reduce as _reduce

        if nic:
            result = yield from _reduce.nic_allreduce(self, value, op)
        else:
            result = yield from _reduce.host_allreduce(self, value, op)
        return result

    def allgather(
        self, size: int, value: Any = None, nic: bool = False
    ) -> Generator[Any, Any, list]:
        """Blocking all-to-all broadcast; returns per-rank values.

        ``nic=True`` runs n concurrent NIC-based multicasts (the paper's
        future-work "Alltoall broadcast"); default is a ring.
        """
        from repro.mpi import allgather as _allgather

        if nic:
            result = yield from _allgather.nic_allgather(self, size, value)
        else:
            result = yield from _allgather.host_allgather(self, size, value)
        return result

    def bcast(self, root: int, size: int, payload: Any = None) -> Generator:
        """Blocking broadcast; accounts blocked time (host CPU time)."""
        entered = self.sim.now
        self.bcast_calls += 1
        nic_eligible = size <= self.cost.mpi_eager_max or self.comm.nic_bcast_rdma
        if self.comm.nic_bcast and nic_eligible:
            result = yield from _bcast.nic_based_bcast(
                self, root, size, payload
            )
        else:
            result = yield from _bcast.host_based_bcast(
                self, root, size, payload
            )
        elapsed = self.sim.now - entered
        self.bcast_cpu_time += elapsed
        self.node.host.charge_blocked(elapsed)
        return result

    def reset_accounting(self) -> None:
        self.bcast_cpu_time = 0.0
        self.bcast_calls = 0

    def __repr__(self) -> str:
        return f"<rank {self.rank}/{self.comm.size} on node {self.node.id}>"
