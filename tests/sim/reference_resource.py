"""The resource kernel as it was before ``Resource.hold``: the oracle.

:class:`Resource` and :class:`Request` below are the counted,
priority-FIFO semaphore that ``repro.sim.resources`` shipped until every
hold went through ``Resource.hold``, copied unchanged.  Holds on it are
written the old way, a fork between the uncontended fast path and the
``use()`` generator::

    ev = res.use_fast(d)
    if ev is None:
        yield from res.use(d)
    else:
        yield ev

``tests/sim/test_resource_oracle.py`` runs random programs on this and
on the new resource and requires the same event schedule.  Nothing in
``src`` imports it.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import TYPE_CHECKING, Any, Generator

from repro.sim.events import SimEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["Resource", "Request"]


class Request(SimEvent):
    """A pending or granted claim on a :class:`Resource`."""

    __slots__ = ("resource", "priority", "_key")

    def __init__(self, resource: "Resource", priority: int):
        super().__init__(resource.sim)
        self.resource = resource
        self.priority = priority


class Resource:
    """A counted resource (semaphore) with priority-FIFO granting.

    ``request()`` returns an event that succeeds when the claim is granted;
    ``release(req)`` returns the unit.  Lower *priority* values are granted
    first; ties are FIFO.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str | None = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiting: list[tuple[int, int, Request]] = []
        self._seq = count()
        #: Accumulated held time from :meth:`use`/:meth:`use_fast`, µs
        #: (utilization accounting; direct request/release pairs are not
        #: tracked).
        self.busy_time = 0.0
        #: Number of :meth:`use`/:meth:`use_fast` holds completed.
        self.use_count = 0

    @property
    def in_use(self) -> int:
        """Number of granted, un-released claims."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of claims waiting to be granted."""
        return len(self._waiting)

    def request(self, priority: int = 0) -> Request:
        """Claim one unit: the returned :class:`Request` succeeds, with
        value ``None``, once the claim is granted — at once if a unit is
        free and nobody is queued.  Pass the request itself to
        :meth:`release`.  (The value is not the request: a request
        holding itself would be a reference cycle that only the cyclic
        garbage collector could free.)
        """
        req = Request(self, priority)
        if self._in_use < self.capacity and not self._waiting:
            self._in_use += 1
            req.succeed()
        else:
            heapq.heappush(self._waiting, (priority, next(self._seq), req))
        return req

    def _release_unit(self) -> None:
        """Return one unit and grant as many queued claims as now fit."""
        self._in_use -= 1
        if self._in_use < 0:
            raise RuntimeError(f"double release on {self.name or self!r}")
        while self._waiting and self._in_use < self.capacity:
            _prio, _seq, nxt = heapq.heappop(self._waiting)
            self._in_use += 1
            nxt.succeed()

    def release(self, request: Request) -> None:
        """Return the unit held by *request*."""
        if request.resource is not self:
            raise ValueError("request does not belong to this resource")
        if not request.triggered:
            # Cancelling a never-granted claim: drop it from the queue.
            self._waiting = [
                entry for entry in self._waiting if entry[2] is not request
            ]
            heapq.heapify(self._waiting)
            return
        self._release_unit()

    def use(
        self, duration: float, priority: int = 0
    ) -> Generator[SimEvent, Any, None]:
        """``yield from`` helper: acquire, hold for *duration* µs, release.

        The general (contention-safe) hold; hot callers go through
        :meth:`use_fast` first and only fall back here when the resource
        is busy or has queued waiters.
        """
        req = self.request(priority)
        try:
            # Inside the try: a waiter closed before its grant must
            # take its claim out of the queue.
            yield req
            yield self.sim.timeout(duration)
            self.busy_time += duration
            self.use_count += 1
        finally:
            self.release(req)

    def use_fast(self, duration: float) -> SimEvent | None:
        """Uncontended hold: one pre-triggered hold-end event, or ``None``.

        When the resource is free with no waiters, the unit is claimed
        inline and a single event — already carrying the release callback
        — is scheduled at ``now + duration``.  The caller yields that
        event and the hold costs no :class:`Request`, no ``use()``
        generator frame, and no separate release timer:

            ev = res.use_fast(cost)
            if ev is None:
                yield from res.use(cost, priority=priority)
            else:
                yield ev

        Returns ``None`` under contention (or capacity exhaustion); the
        caller must then take the ordinary :meth:`use` path.
        """
        if self._in_use >= self.capacity or self._waiting:
            return None
        self._in_use += 1
        self.busy_time += duration
        self.use_count += 1
        sim = self.sim
        # Slots assigned directly (one hold-end event per modelled
        # occupancy makes this the kernel's hottest allocation site).
        ev = SimEvent.__new__(SimEvent)
        ev.sim = sim
        # The release runs first, then the waiting process resumes —
        # matching use(), whose epilogue releases before the caller's
        # continuation code runs.
        ev.callbacks = [self._fast_hold_done]
        ev._value = None
        ev._ok = True
        ev.name = None
        if duration == 0.0:
            sim._now_q.append(ev)
        else:
            heapq.heappush(
                sim._heap, (sim._now + duration, 1, next(sim._seq), ev)
            )
        return ev

    def _fast_hold_done(self, _ev: SimEvent) -> None:
        self._release_unit()
