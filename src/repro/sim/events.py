"""Event primitives for the simulation kernel.

Every coordination point in the simulator is a :class:`SimEvent`.  Processes
yield events; components trigger them.  An event carries a value (delivered
to every waiter) or a failure exception (raised in every waiter).
"""

from __future__ import annotations

from heapq import heappush as _heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["SimEvent", "Timeout", "AllOf"]


class _Pending:
    """Sentinel for 'no value yet'."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<PENDING>"


PENDING = _Pending()


class SimEvent:
    """A one-shot event.

    An event goes through three states: *pending* (just created),
    *triggered* (``succeed``/``fail`` called, now sitting in the event
    queue), and *processed* (callbacks have run).  Triggering twice is a
    programming error and raises :class:`RuntimeError`.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "name")

    def __init__(self, sim: "Simulator", name: str | None = None):
        self.sim = sim
        #: Callables invoked with this event when it is processed.  Set to
        #: ``None`` once processed (late adds then run immediately).
        self.callbacks: list[Callable[[SimEvent], None]] | None = []
        self._value: Any = PENDING
        self._ok: bool | None = None
        self.name = name

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise RuntimeError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or failure exception) once triggered."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has no value yet")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, *, priority: int = 1) -> "SimEvent":
        """Mark the event successful and schedule its callbacks *now*."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        # Straight onto the kernel's now-queue for this priority (succeed
        # is the kernel's single hottest trigger).
        sim = self.sim
        if priority == 1:
            sim._now_q.append(self)
        else:
            sim._now_uq.append(self)
        return self

    def fail(self, exception: BaseException, *, priority: int = 1) -> "SimEvent":
        """Mark the event failed; waiters will have *exception* raised."""
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        sim = self.sim
        if priority == 1:
            sim._now_q.append(self)
        else:
            sim._now_uq.append(self)
        return self

    # -- waiting ---------------------------------------------------------
    def add_callback(self, callback: Callable[["SimEvent"], None]) -> None:
        """Attach *callback*; runs immediately if already processed."""
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def remove_callback(self, callback: Callable[["SimEvent"], None]) -> None:
        """Detach *callback* if still pending (no-op when absent)."""
        if self.callbacks is not None:
            try:
                self.callbacks.remove(callback)
            except ValueError:
                pass

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(SimEvent):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(
        self,
        sim: "Simulator",
        delay: float,
        value: Any = None,
        name: str | None = None,
    ):
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        # Flattened hot path (one Timeout per modelled wait): assign the
        # slots directly and push straight onto the heap rather than
        # chaining through SimEvent.__init__.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self.name = name
        self.delay = delay
        if delay == 0.0:
            # Zero-delay timeouts ride the kernel's now-queue (Kernel
            # v3): FIFO append order equals heap (when, priority, seq)
            # order for same-instant NORMAL work, minus the heap ops.
            sim._now_q.append(self)
        else:
            _heappush(
                sim._heap, (sim._now + delay, 1, next(sim._seq), self)
            )


class AllOf(SimEvent):
    """Triggers once *all* of a fixed set of sub-events have triggered.

    The value is a dict mapping each sub-event to its value, in trigger
    order.  If any sub-event fails first, the condition fails with that
    exception.
    """

    __slots__ = ("events", "_results", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[SimEvent]):
        super().__init__(sim)
        self.events: tuple[SimEvent, ...] = tuple(events)
        self._results: dict[SimEvent, Any] = {}
        self._count = 0
        if not self.events:
            self.succeed(self._results)
            return
        for ev in self.events:
            if ev.sim is not sim:
                raise ValueError("cannot mix events from different simulators")
            ev.add_callback(self._check)

    def _check(self, event: SimEvent) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            # Drop ``_check`` from the still-pending sub-events: a dead
            # callback on a long-lived event would keep this condition.
            for ev in self.events:
                ev.remove_callback(self._check)
            return
        self._count += 1
        self._results[event] = event.value
        if self._count == len(self.events):
            self.succeed(dict(self._results))
