"""The per-window retransmission timer.

GM's firmware keeps *one* conceptual retransmission clock per
connection: "if the sender times out on the oldest unacknowledged
record, the sender will retransmit the packet, as well as all the later
packets from the same port" (paper §4).  The repo's first implementation
scheduled one ``schedule_callback(lambda …)`` per record per (re)arm —
every ack or replica refresh left a dead closure in the event heap that
popped later, checked a generation counter, and bailed out stale.  On a lossy
multicast run >95% of timer fires were such garbage: 116 stale of 117
fires against 1 of 2 today (``tests/proto/test_timer.py`` pins the
counts).

:class:`RetransmitTimer` replaces that pattern.  It keeps **at most one
outstanding heap callback per window**:

* :meth:`arm` stamps the record's absolute ``deadline`` and only touches
  the heap when no callback is outstanding (with a fixed timeout the
  outstanding pop time is never later than a fresh deadline);
* when the callback pops it scans the window: if the *oldest* record is
  overdue it is handed to ``on_expire`` (which traces the timeout and
  starts the retransmission policy) and marked swept (deadline
  ``NEVER``) so it cannot fire again until explicitly re-armed — exactly
  the old consumed-callback behaviour; younger overdue records are
  re-armed in place ("re-arm so it still fires if it *becomes* the
  oldest"); then one callback is rescheduled at the earliest remaining
  deadline, if any;
* acking a record requires **no** timer work at all: retirement from the
  window is the defusing;
* with Kernel v3 the outstanding callback is a cancellable wheel timer
  (:meth:`~repro.sim.engine.Simulator.schedule_timer`): when an ack
  drains the window, :meth:`RetransmitTimer.defuse` cancels it in O(1).
  A handle cancelled while still bucketed in the wheel is dropped at
  flush time (``wheel_cancelled``) and never reaches the heap; one whose
  slot has already flushed — the ack landed inside the final wheel slot
  before the deadline — still pops, but is discarded without dispatching
  an event (``wheel_skipped``).  Either way the defuse is one
  ``timers_cancelled`` and zero stale fires:
  ``timers_cancelled == wheel_cancelled + wheel_skipped`` once the
  queue drains.

The observable schedule is unchanged by construction: a real timeout
still fires at ``last_arm + timeout`` of the oldest unacked record, and
stale pops were no-ops before.  What changes is heap pressure — counted
in :data:`repro.perf.counters.KERNEL_COUNTERS`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.perf.counters import KERNEL_COUNTERS
from repro.proto.window import NEVER, SendWindow

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["RetransmitTimer"]


class RetransmitTimer:
    """One retransmission timer for one :class:`SendWindow`."""

    __slots__ = ("sim", "timeout", "window", "on_expire", "_next", "_handle")

    def __init__(
        self,
        sim: "Simulator",
        timeout: float,
        window: SendWindow,
        on_expire: Callable[[Any], None],
    ):
        if timeout <= 0:
            raise ValueError(f"retransmit timeout must be positive: {timeout}")
        self.sim = sim
        self.timeout = timeout
        self.window = window
        #: Called with the overdue oldest record; must (eventually)
        #: re-arm or retire it — the record is swept until then.
        self.on_expire = on_expire
        #: Absolute pop time of the outstanding timer, or None.
        self._next: float | None = None
        #: Wheel handle of the outstanding timer (cancellable), or None.
        self._handle = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<RetransmitTimer next={self._next} "
            f"outstanding={len(self.window)}>"
        )

    @property
    def idle(self) -> bool:
        """True when no heap callback is outstanding."""
        return self._next is None

    def arm(self, record: Any) -> None:
        """(Re)start *record*'s retransmission clock from now."""
        record.deadline = self.sim.now + self.timeout
        KERNEL_COUNTERS.timers_armed += 1
        m = self.sim.metrics
        if m is not None:
            m.inc("proto.timers_armed")
        if self._next is None:
            # No callback in flight: schedule one at this deadline.  An
            # outstanding callback always pops at or before any fresh
            # deadline (fixed timeout), so it covers this arm lazily.
            self._schedule(record.deadline)

    def _schedule(self, when: float) -> None:
        self._next = when
        KERNEL_COUNTERS.timers_scheduled += 1
        m = self.sim.metrics
        if m is not None:
            m.inc("proto.timers_scheduled")
        self._handle = self.sim.schedule_timer(when, self._fire)

    def defuse(self) -> None:
        """Cancel the outstanding timer once the window has drained.

        Ack paths call this after retiring records: with nothing left
        unacked the scheduled fire could only pop stale, so cancelling
        the wheel handle (O(1)) removes the pop entirely.  A no-op when
        records remain or no timer is outstanding.
        """
        if self._next is None or self.window.records:
            return
        self._handle.cancel()
        self._handle = None
        self._next = None
        KERNEL_COUNTERS.timers_cancelled += 1
        m = self.sim.metrics
        if m is not None:
            m.inc("proto.timers_cancelled")

    def _fire(self) -> None:
        self._next = None
        self._handle = None
        KERNEL_COUNTERS.timer_fires += 1
        m = self.sim.metrics
        if m is not None:
            m.inc("proto.timer_fires")
        records = self.window.records
        now = self.sim.now
        expired = None
        if records:
            seqs = sorted(records)
            oldest = seqs[0]
            for seq in seqs:
                record = records[seq]
                if record.deadline > now:
                    continue
                if seq == oldest:
                    # Only the oldest unacked record drives
                    # retransmission (as in GM).  Sweep it — no timer
                    # until the retransmission path re-arms it.
                    record.deadline = NEVER
                    expired = record
                else:
                    # A younger packet rides in the oldest record's
                    # Go-back-N; re-arm so it still fires if it
                    # *becomes* the oldest.
                    record.deadline = now + self.timeout
                    KERNEL_COUNTERS.timers_armed += 1
                    if m is not None:
                        m.inc("proto.timers_armed")
        if expired is not None:
            self.on_expire(expired)
        else:
            KERNEL_COUNTERS.timer_stale_fires += 1
            if m is not None:
                m.inc("proto.timer_stale_fires")
        # One callback at the earliest remaining deadline, if any (unless
        # on_expire already armed synchronously and re-scheduled).
        if self._next is None:
            nxt = NEVER
            for record in records.values():
                if record.deadline < nxt:
                    nxt = record.deadline
            if nxt < NEVER:
                self._schedule(nxt)
