"""Shared-resource primitives: semaphores and FIFO stores.

These model contended hardware in the stack: the LANai processor and PCI
bus are capacity-1 :class:`Resource` objects, and packet queues are
:class:`Store` objects.

Kernel v2 adds uncontended fast paths: :meth:`Resource.use_fast` grants a
free resource inline with a single hold-end event (no
:class:`Request`, no generator frame), and :meth:`Store.try_get` hands
back an already-queued item synchronously so engine drain loops skip
getter-event creation entirely.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count
from typing import TYPE_CHECKING, Any, Generator

from repro.sim.events import PENDING, SimEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["Resource", "Request", "Store", "PriorityStore", "EMPTY"]


class _Empty:
    """Sentinel returned by :meth:`Store.try_get` when nothing is queued."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<EMPTY>"


EMPTY = _Empty()


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


class Store:
    """An unbounded FIFO of items with event-based ``get``.

    ``put`` never blocks (queues in the NIC model are bounded by the buffer
    pools that feed them, not by the queue itself).  ``get`` returns an
    event that succeeds with the next item, in strict FIFO order of both
    items and getters; ``try_get`` takes a queued item synchronously.
    """

    #: Builds the item container: a FIFO here, a heap in a subclass.
    _container = deque

    def __init__(self, sim: "Simulator", name: str | None = None):
        self.sim = sim
        self.name = name
        self._get_name = f"get:{name}" if name else None
        self._items = self._container()
        #: Waiting getter events, oldest first.  A list, not a deque: a
        #: store seldom has more than one waiting getter, and an empty
        #: deque costs 760 bytes against a list's 56.
        self._getters: list[SimEvent] = []

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple[Any, ...]:
        """Snapshot of queued items (for tests and introspection)."""
        return tuple(self._items)

    def put(self, item: Any) -> None:
        self._items.append(item)
        if self._getters:
            self._dispatch()

    def get(self) -> SimEvent:
        # Allocated via __new__ (one getter event per received packet
        # makes this a kernel-hot allocation site).
        ev = SimEvent.__new__(SimEvent)
        ev.sim = self.sim
        ev.callbacks = []
        ev._value = PENDING
        ev._ok = None
        ev.name = self._get_name
        self._getters.append(ev)
        if self._items:
            self._dispatch()
        return ev

    def try_get(self) -> Any:
        """Take the next item now, or :data:`EMPTY` if none is queued.

        The drain-loop fast path: when the queue is backlogged the
        consumer keeps draining synchronously instead of allocating a
        getter event per item.  Only valid when the caller is the sole
        consumer (true of every NIC engine loop).
        """
        if self._items and not self._getters:
            return self._take()
        return EMPTY

    def _take(self) -> Any:
        return self._items.popleft()

    def _dispatch(self) -> None:
        while self._items and self._getters:
            getter = self._getters.pop(0)
            getter.succeed(self._take())


class PriorityStore(Store):
    """A store whose items are returned lowest-key first.

    Items are ``(priority_key, payload)`` pairs inserted with
    :meth:`put_priority`; plain :meth:`put` uses priority ``0``.  The
    item container is a heap of ``(priority_key, seq, payload)``, so
    equal keys come out in insertion order.
    """

    _container = list

    def __init__(self, sim: "Simulator", name: str | None = None):
        super().__init__(sim, name=name)
        self._seq = count()

    @property
    def items(self) -> tuple[Any, ...]:
        return tuple(payload for _k, _s, payload in sorted(self._items))

    def put(self, item: Any) -> None:
        self.put_priority(0, item)

    def put_priority(self, priority: Any, item: Any) -> None:
        heapq.heappush(self._items, (priority, next(self._seq), item))
        if self._getters:
            self._dispatch()

    def try_get(self) -> Any:
        if self._items and not self._getters:
            return heapq.heappop(self._items)[2]
        return EMPTY

    def _take(self) -> Any:
        return heapq.heappop(self._items)[2]
