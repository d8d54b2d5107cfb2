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
        self._channel = Resource(sim, name=f"{name}.channel")
        # Cached bound method: the fabric schedules a release once per
        # packet per hop, and a fresh bound method there would be the
        # single biggest allocation site in a sweep.
        self._release_cb = self._channel.release
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
        """Claim the channel inline if it is idle.

        The uncontended wire fast path: no claim event, no process
        suspension — the head starts crossing in the same callback that
        injected it.  Returns ``False`` when the channel is busy; the
        caller must then wait on :meth:`claim_head`.
        """
        channel = self._channel
        if channel._in_use:
            return False
        channel._in_use = 1
        return True

    def claim_head(self) -> SimEvent:
        """Request the channel for a packet head (cut-through traversal).

        Once the head has crossed, by this claim or :meth:`claim_fast`,
        the caller schedules ``_release_cb`` for when the tail has
        streamed through; see ``fabric._Traversal._cross``.
        """
        return self._channel.request()

    def close(self) -> None:
        """Teardown: drop the waiting claims (a waiting walk holds this)."""
        self._channel.close()

    def __repr__(self) -> str:
        return f"<Link {self.name} {self.bandwidth}B/us lat={self.latency}us>"
