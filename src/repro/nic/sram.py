"""Bounded NIC SRAM packet-buffer pools.

"The NIC receive buffer is a limited resource, and holding on to one or
more receive buffers will slow down the receiver or even block the
network" (paper §5) — so buffers are first-class objects with explicit
acquire/release and occupancy statistics, and the receive path can *fail*
to get one (packet dropped, recovered by retransmission).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.events import SimEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["SRAMBuffer", "BufferPool"]


class SRAMBuffer:
    """One MTU-sized packet buffer in NIC SRAM."""

    __slots__ = ("pool", "index", "in_use")

    def __init__(self, pool: "BufferPool", index: int):
        self.pool = pool
        self.index = index
        self.in_use = False

    def release(self) -> None:
        self.pool.release(self)

    def __repr__(self) -> str:
        state = "busy" if self.in_use else "free"
        return f"<SRAMBuffer {self.pool.name}[{self.index}] {state}>"


class BufferPool:
    """A fixed set of SRAM buffers with blocking and non-blocking acquire.

    The set is a count, and a buffer object is minted on first use: a
    released buffer goes on ``_free`` and is reused last-in, first-out,
    ahead of the ``_unminted`` buffers no acquire has taken yet.  Minted
    buffers get indices from ``size - 1`` down, the order in which a
    pool built whole hands them out, so every counter and ``repr`` reads
    as if all *size* buffers existed from the start.
    """

    def __init__(self, sim: "Simulator", size: int, name: str = "pool"):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.sim = sim
        self.size = size
        self.name = name
        self._free: list[SRAMBuffer] = []
        self._unminted = size
        self._waiters: list[SimEvent] = []
        #: How many acquires found the pool empty (overrun statistics).
        self.misses = 0
        #: High-water mark of simultaneous occupancy.
        self.max_in_use = 0

    @property
    def free(self) -> int:
        return len(self._free) + self._unminted

    @property
    def in_use(self) -> int:
        return self.size - len(self._free) - self._unminted

    def _take(self) -> SRAMBuffer | None:
        """Mark the next free buffer in use and return it, or ``None``."""
        if self._free:
            buf = self._free.pop()
        elif self._unminted:
            self._unminted -= 1
            buf = SRAMBuffer(self, self._unminted)
        else:
            return None
        buf.in_use = True
        self.max_in_use = max(self.max_in_use, self.in_use)
        return buf

    def try_acquire(self) -> SRAMBuffer | None:
        """Take a buffer now, or ``None`` if the pool is empty.

        Used on the wire-receive path, where a NIC with no free buffer
        simply cannot latch the incoming packet.
        """
        buf = self._take()
        if buf is None:
            self.misses += 1
        return buf

    def acquire(self) -> SimEvent:
        """An event that succeeds with a buffer (FIFO among waiters).

        Unlike :meth:`try_acquire`, waiting here is not counted as an
        overrun miss — the send path tolerates waiting, the receive path
        does not.
        """
        ev = self.sim.event(name=f"{self.name}.acquire")
        buf = None if self._waiters else self._take()
        if buf is None:
            self._waiters.append(ev)
        else:
            ev.succeed(buf)
        return ev

    def release(self, buf: SRAMBuffer) -> None:
        if buf.pool is not self:
            raise ValueError("buffer belongs to a different pool")
        if not buf.in_use:
            raise RuntimeError(f"double release of {buf!r}")
        buf.in_use = False
        if self._waiters:
            waiter = self._waiters.pop(0)
            buf.in_use = True
            waiter.succeed(buf)
        else:
            self._free.append(buf)

    def close(self) -> None:
        """Teardown: drop the freed buffers, which refer back here."""
        self._free.clear()

    def __repr__(self) -> str:
        return f"<BufferPool {self.name} {self.free}/{self.size} free>"
