"""The host processor model.

The paper's skew experiments measure *host CPU time* — the time a process
spends inside a blocking ``MPI_Bcast``.  The :class:`Host` provides the
compute/blocking vocabulary experiments use and accounts busy time.

Hosts in the testbed are fast (700 MHz PIII vs the 133 MHz LANai): host
work costs come from the cost model and are small; the interesting cost
is *waiting*, which is what the accounting here exposes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gm.params import GMCostModel
    from repro.sim.engine import Simulator

__all__ = ["Host"]


class Host:
    """The host CPU of one node."""

    def __init__(self, sim: "Simulator", node_id: int, cost: "GMCostModel"):
        self.sim = sim
        self.id = node_id
        self.cost = cost
        self.name = f"host[{node_id}]"
        #: The host CPU.  Experiments that model contention between the
        #: application and communication library can share it; by default
        #: each host runs a single process.
        self.cpu = Resource(sim, name=f"{self.name}.cpu")
        #: Accumulated compute time (µs).
        self.compute_time = 0.0
        #: Accumulated time blocked inside communication calls (µs);
        #: maintained by the MPI layer's blocking operations.
        self.blocked_time = 0.0

    def compute(self, duration: float) -> Generator[Any, Any, None]:
        """Spin the host CPU for *duration* µs of application work."""
        if duration < 0:
            raise ValueError(f"negative compute duration {duration}")
        if duration == 0:
            return
        yield self.cpu.hold(duration)
        self.compute_time += duration

    def charge_blocked(self, duration: float) -> None:
        """Account *duration* µs spent blocked in a communication call."""
        self.blocked_time += duration

    def reset_accounting(self) -> None:
        self.compute_time = 0.0
        self.blocked_time = 0.0

    def __repr__(self) -> str:
        return f"<Host {self.id}>"
