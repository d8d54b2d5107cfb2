"""Shared-resource primitives: capacity-1 units and FIFO stores.

These model contended hardware in the stack: the LANai processor, the
PCI bus and the SRAM copy engine are :class:`Resource` units, and packet
queues are :class:`Store` objects.

Every hold is one event: :meth:`Resource.hold` returns it and the caller
yields it.  On a free unit the event is the hold's end, already carrying
the release; a hold that has to queue gets a grant event when the unit
comes free, and that grant schedules the end.  :meth:`Store.try_get`
hands back an already-queued item synchronously, so engine drain loops
skip getter-event creation entirely.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count
from typing import TYPE_CHECKING, Any

from repro.sim.events import PENDING, SimEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["Resource", "Store", "PriorityStore", "EMPTY"]


class _Empty:
    """Sentinel returned by :meth:`Store.try_get` when nothing is queued."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<EMPTY>"


EMPTY = _Empty()


class _Hold(SimEvent):
    """A hold queued behind a busy unit, and the event its caller yields:
    pending until the unit is handed to it, dispatched when it ends."""

    __slots__ = ("duration",)

    def __init__(self, sim: "Simulator", duration: float):
        super().__init__(sim)
        self.duration = duration


class Resource:
    """One unit of contended hardware, granted first come, first served.

    :meth:`hold` occupies the unit for a fixed time.  A link's packet
    head claims the unit with :meth:`request` and gives it back with
    :meth:`release` once its tail has streamed through.  Holds and claims
    wait in one FIFO queue.
    """

    def __init__(self, sim: "Simulator", name: str | None = None):
        self.sim = sim
        self.name = name
        self._in_use = 0
        #: Queued claims (plain events) and holds (:class:`_Hold`),
        #: oldest first.  A list, not a deque: most units never queue
        #: more than a few, and an empty deque costs 760 bytes against a
        #: list's 56.  Non-empty only while the unit is in use.
        self._waiting: list[SimEvent] = []
        #: The hold the unit was handed to, until its grant event runs.
        self._granted: _Hold | None = None
        #: Accumulated held time from :meth:`hold`, µs (utilization
        #: accounting; claims are not tracked).
        self.busy_time = 0.0
        #: Number of holds completed.
        self.use_count = 0

    @property
    def in_use(self) -> int:
        """1 while the unit is held or claimed, else 0."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of claims and holds waiting, not counting a hold whose
        waiter has gone (it is skipped when the unit comes free)."""
        return sum(
            1 for ev in self._waiting
            if ev.callbacks or ev.__class__ is not _Hold
        )

    def request(self) -> SimEvent:
        """Claim the unit: the returned event succeeds, with value
        ``None``, once the claim is granted — at once if the unit is
        free.  The claimant gives the unit back with :meth:`release`.
        """
        ev = SimEvent(self.sim)
        if self._in_use:
            self._waiting.append(ev)
        else:
            self._in_use = 1
            ev.succeed()
        return ev

    def release(self) -> None:
        """Return the unit and hand it to the oldest live claim or hold.

        A queued hold that nobody waits on any more (its process was
        closed) is skipped and never holds the unit.
        """
        if not self._in_use:
            raise RuntimeError(f"double release on {self.name or self!r}")
        waiting = self._waiting
        while waiting:
            nxt = waiting.pop(0)
            if nxt.__class__ is not _Hold:
                nxt.succeed()
                return
            if nxt.callbacks:
                nxt._value = None
                nxt._ok = True
                self._granted = nxt
                grant = SimEvent(self.sim)
                grant.callbacks.append(self._start)
                grant.succeed()
                return
        self._in_use = 0

    def hold(self, duration: float) -> SimEvent:
        """Occupy the unit for *duration* µs: yield the returned event,
        which fires when the hold ends and the unit has been released.

        On a free unit the hold starts at once and the event is its end.
        On a busy one the hold queues: when the unit is handed over, a
        grant event runs and schedules the end *duration* later.  Yield
        the event straight away — a queued hold nobody waits on when the
        unit comes free is skipped.
        """
        if duration < 0:
            raise ValueError(f"negative hold duration {duration!r}")
        sim = self.sim
        if self._in_use:
            hold = _Hold(sim, duration)
            self._waiting.append(hold)
            return hold
        self._in_use = 1
        self.busy_time += duration
        self.use_count += 1
        # Slots assigned directly (one hold-end event per modelled
        # occupancy makes this the kernel's hottest allocation site).
        ev = SimEvent.__new__(SimEvent)
        ev.sim = sim
        # The release runs first, then the waiting process resumes.
        ev.callbacks = [self._released]
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

    def _start(self, _grant: SimEvent) -> None:
        """Grant event: schedule the end of the hold just handed over."""
        hold, self._granted = self._granted, None
        # The end accounts for the hold and releases the unit before the
        # waiter resumes.
        hold.callbacks.insert(0, self._ended)
        sim = self.sim
        if hold.duration == 0.0:
            sim._now_q.append(hold)
        else:
            heapq.heappush(
                sim._heap, (sim._now + hold.duration, 1, next(sim._seq), hold)
            )

    def _ended(self, hold: _Hold) -> None:
        self.busy_time += hold.duration
        self.use_count += 1
        self.release()

    def _released(self, _ev: SimEvent) -> None:
        self.release()

    def close(self) -> list[SimEvent]:
        """Teardown: drop the queue, and return the events its waiters
        wait on — the hold handed over this instant, then every queued
        hold and claim — so the simulator's close can end them."""
        waiting = self._waiting
        if self._granted is not None:
            waiting.insert(0, self._granted)
            self._granted = None
        self._waiting = []
        return waiting


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
