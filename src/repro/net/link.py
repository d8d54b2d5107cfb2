"""Unidirectional network links.

A link serializes packets at its bandwidth and adds a fixed propagation
latency.  Serialization occupies the link (FIFO contention); propagation
pipelines, so back-to-back packets overlap their flight times.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.events import SimEvent
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.net.packet import Packet

__all__ = ["Link"]


class Link:
    """One direction of a full-duplex Myrinet cable.

    Parameters
    ----------
    bandwidth:
        Bytes per microsecond (Myrinet-2000: 250 B/µs = 2 Gb/s).
    latency:
        Propagation + per-hop routing delay in µs for the packet head.
    """

    def __init__(
        self,
        sim: "Simulator",
        bandwidth: float,
        latency: float,
        name: str = "link",
    ):
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        self.sim = sim
        self.bandwidth = bandwidth
        self.latency = latency
        self.name = name
        self._channel = Resource(sim, capacity=1, name=f"{name}.channel")
        # Cached bound method: hold_for runs once per packet per hop, and
        # a fresh closure (or bound method) there would be the single
        # biggest allocation site in a sweep.
        self._release_cb = self._channel._release_unit
        #: Cumulative bytes serialized (utilization accounting).
        self.bytes_carried = 0
        self.packets_carried = 0
        #: Live-fabric state: ``False`` while the cable (or an attached
        #: switch) is failed.  Flipped only through
        #: :meth:`repro.net.topology.Topology.set_link_state` /
        #: ``set_switch_state`` so the topology's route caches stay in
        #: sync; packets claiming a dead link are dropped in the fabric.
        self.up = True

    def serialization_time(self, packet: "Packet") -> float:
        return packet.wire_size / self.bandwidth

    @property
    def busy(self) -> bool:
        return self._channel.in_use > 0

    @property
    def queue_length(self) -> int:
        return self._channel.queue_length

    def claim_fast(self) -> bool:
        """Claim the channel inline if it is idle with no waiters.

        The uncontended wire fast path: no :class:`Request`, no grant
        event, no process suspension — the head starts crossing in the
        same callback that injected it.  Returns ``False`` under
        contention; the caller must then ``yield`` :meth:`claim_head`.
        """
        channel = self._channel
        if channel._in_use >= channel.capacity or channel._waiting:
            return False
        channel._in_use += 1
        return True

    def claim_head(self) -> SimEvent:
        """Request the channel for a packet head (cut-through traversal).

        The caller must follow up with :meth:`hold_for` (which schedules the
        release) once the head has crossed; see ``fabric.Network._traverse``.
        """
        return self._channel.request()

    def hold_for(self, duration: float) -> None:
        """Keep the channel occupied for *duration* µs, then release.

        Scheduled in the background so the packet head can progress to the
        next hop while the tail is still streaming through this link.  This
        runs once per packet per hop, so it goes through the kernel's
        raw-callback timer (a recycled heap cell and a cached bound
        method — no event, no closure, no release process).  Works for
        holds taken via :meth:`claim_fast` and :meth:`claim_head` alike:
        releasing a granted claim is exactly one ``_release_unit``.
        """
        sim = self.sim
        sim.schedule_callback(sim._now + duration, self._release_cb)

    def close(self) -> None:
        """Teardown: drop the waiting claims (a waiting walk holds this)."""
        self._channel._waiting.clear()

    def __repr__(self) -> str:
        return f"<Link {self.name} {self.bandwidth}B/us lat={self.latency}us>"
