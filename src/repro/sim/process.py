"""Generator-coroutine process driver.

A *process* wraps a Python generator that yields :class:`SimEvent`
instances.  When a yielded event triggers, the process is resumed with the
event's value (or, if the event failed, the exception is thrown into the
generator).  When the generator returns, the process — itself an event —
succeeds with the generator's return value, so processes can be waited on
and composed like any other event.
"""

from __future__ import annotations

from types import GeneratorType
from typing import TYPE_CHECKING, Any, Generator

from repro.sim.events import SimEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["Process"]


class Process(SimEvent):
    """A running simulation process (also an event: triggers on exit)."""

    __slots__ = ("_generator", "_target", "_resume_cb", "_send", "_throw")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[SimEvent, Any, Any],
        name: str | None = None,
    ):
        # The common case is an actual generator (one type check); only
        # duck-typed stand-ins pay the hasattr probes.
        if type(generator) is not GeneratorType and (
            not hasattr(generator, "send") or not hasattr(generator, "throw")
        ):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        super().__init__(sim, name=name or getattr(generator, "__name__", None))
        self._generator = generator
        #: Bound ``send``/``throw``, cached once — rebinding them on every
        #: resume costs a method lookup per event.
        self._send = generator.send
        self._throw = generator.throw
        #: The event this process is currently waiting on (None if not
        #: started or finished).
        self._target: SimEvent | None = None
        #: The bound resume method, created once — registering a fresh
        #: ``self._resume`` on every yield would allocate a bound-method
        #: object per event on the kernel's hottest path.  It refers back
        #: to the process, so every exit drops it: a finished process is
        #: then freed by reference counting as soon as it is dropped,
        #: instead of waiting for the cyclic garbage collector.
        self._resume_cb = self._resume
        # Kick off at the current instant, with urgent priority so a
        # just-created process starts before same-time ordinary events.
        # The boot event is anonymous — an f-string name per spawned
        # process showed up in serving-rate profiles.
        boot = SimEvent.__new__(SimEvent)
        boot.sim = sim
        boot.callbacks = [self._resume_cb]
        boot._value = None
        boot._ok = True
        boot.name = None
        sim._now_uq.append(boot)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def close(self) -> None:
        """End the process where it waits, without resuming it: detach
        from its target, drop the resume callback and close the
        generator, running its ``finally`` blocks.  It never triggers.
        """
        if self._target is not None:
            self._target.remove_callback(self._resume_cb)
            self._target = None
        self._resume_cb = None
        self._generator.close()
        # On Python 3.12 a generator closed before it started still holds
        # its arguments, often the owner that holds this process: keep a
        # finished generator instead, which answers alike.
        self._generator = _FINISHED
        self._send = _FINISHED.send
        self._throw = _FINISHED.throw

    def _resume(self, event: SimEvent) -> None:
        self._target = None
        send = self._send
        while True:
            try:
                # Events handed to _resume are always triggered, so the
                # slots are read directly (the ok/value properties cost a
                # descriptor call each on the busiest path in the kernel).
                if event._ok:
                    target = send(event._value)
                else:
                    target = self._throw(event._value)
            except StopIteration as stop:
                self._resume_cb = None
                self.succeed(stop.value, priority=0)
                return
            except BaseException as exc:
                self._resume_cb = None
                if self.callbacks:
                    # Someone is waiting on this process: propagate to them.
                    self.fail(exc, priority=0)
                    return
                raise
            try:
                # EAFP stand-in for isinstance(target, SimEvent): every
                # event has a `callbacks` slot, and on 3.11+ an untaken
                # except costs nothing, where the isinstance call was
                # measurable at one per yield.
                cbs = target.callbacks
            except AttributeError:
                event = _failed(self.sim, RuntimeError(
                    f"process {self.name!r} yielded {target!r}, "
                    "which is not a SimEvent"
                ))
                continue
            if target.sim is not self.sim:
                event = _failed(self.sim, ValueError(
                    "yielded an event from a different simulator"
                ))
                continue
            if cbs is None:
                # Already processed: loop around synchronously (no
                # rescheduling), keeping same-instant semantics cheap and
                # deterministic.
                event = target
                continue
            self._target = target
            cbs.append(self._resume_cb)
            return


def _failed(sim: "Simulator", exc: BaseException) -> SimEvent:
    """A failed event, already processed, that is never scheduled.

    A bad yield is thrown into the process exactly as a failed event
    would be: a process that catches the error carries on, and one that
    does not fails into its waiters, or else out of ``run()``.
    """
    ev = SimEvent.__new__(SimEvent)
    ev.sim = sim
    ev.callbacks = None
    ev._value = exc
    ev._ok = False
    ev.name = None
    return ev


def _finished() -> Generator[SimEvent, Any, None]:
    yield from ()


_FINISHED = _finished()
next(_FINISHED, None)
