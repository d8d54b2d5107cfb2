"""The simulation engine: clock, event heap, and run loop.

Kernel v2: the heap holds two kinds of entries — :class:`SimEvent`
objects and :class:`_Callback` cells (raw callables recycled through a
freelist).  Timers that only need to run a function (link
releases, packet hops, retransmission timers) go through
:meth:`Simulator.schedule_callback` and never allocate an event; one
dispatch loop (hoisted heap/locals, batched counter updates) serves
every run mode, so the per-event cost is one heap pop plus the
callbacks themselves.

Kernel v3 adds two structures around the heap:

* a **now-queue** (one per priority) — same-instant work (``succeed``,
  zero-delay timeouts, same-time callbacks, process boots and exits)
  goes on a plain FIFO deque instead of the heap.  The dispatch loop
  drains any heap entries already due at the current instant first
  (they were scheduled earlier, so their sequence numbers are smaller),
  then the urgent queue, then the normal queue, each in append order — byte
  identical to the ``(when, priority, seq)`` heap order, without paying
  ``heappush``/``heappop`` for the majority of events in a cascade;
* a **hierarchical timer wheel** — cancellable timers armed through
  :meth:`Simulator.schedule_timer` land in coarse time buckets (64 µs
  level-0 slots, 4096 µs level-1 slots, an overflow list beyond) and are
  only flushed onto the heap when the clock approaches their slot.  A
  timer cancelled while still in the wheel never touches the heap at
  all (counted ``wheel_cancelled``); one cancelled after flushing is
  skipped at pop (counted ``wheel_skipped``).  Entries keep the
  ``(when, priority, seq)`` key assigned when armed, so flushing
  reproduces exactly the order direct heap scheduling would have given.
"""

from __future__ import annotations

import heapq
from collections import deque
from functools import partial
from itertools import count
from typing import Any, Callable, Generator

from repro.perf.counters import KERNEL_COUNTERS
from repro.sim.events import AllOf, SimEvent, Timeout
from repro.sim.process import Process
from repro.sim.resources import Resource
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer

__all__ = [
    "Simulator",
    "URGENT",
    "NORMAL",
    "set_default_metrics",
    "set_default_flight",
]

#: Priority for internal immediate resumptions (processed before NORMAL
#: events scheduled at the same instant).
URGENT = 0
#: Default scheduling priority.
NORMAL = 1

_INF = float("inf")

#: Timer-wheel level-0 slot width, µs.  Sized so the default 400 µs
#: retransmission timeout spans a handful of slots: a timer armed and
#: acked within its round trip is cancelled long before its slot flushes.
_WHEEL_G0 = 64.0
#: Slots per level; level-1 slot width equals one full level-0 span.
_WHEEL_SLOTS = 64
_WHEEL_SPAN0 = _WHEEL_G0 * _WHEEL_SLOTS  # 4 096 µs
_WHEEL_G1 = _WHEEL_SPAN0
_WHEEL_SPAN1 = _WHEEL_G1 * _WHEEL_SLOTS  # 262 144 µs

#: Registry adopted by simulators created after :func:`set_default_metrics`.
#: ``None`` (the default) keeps all instrumentation down to one attribute
#: check per site.  The slot is duck-typed on purpose: the kernel never
#: imports :mod:`repro.obs` — observers push a registry down, either here
#: or by assigning ``sim.metrics`` directly.
_DEFAULT_METRICS: Any = None


def set_default_metrics(registry: Any) -> Any:
    """Set the registry future simulators attach to; returns the old one.

    For harnesses that build clusters internally (the experiment
    runner's ``--metrics`` flag).  Pass ``None`` to restore the
    unobserved default.
    """
    global _DEFAULT_METRICS
    previous = _DEFAULT_METRICS
    _DEFAULT_METRICS = registry
    return previous


#: Flight recorder adopted by simulators created after
#: :func:`set_default_flight`.  Same contract as ``_DEFAULT_METRICS``:
#: duck-typed, ``None`` by default, never imported from the kernel —
#: observers (``repro.obs.flight``) push a recorder down, either here or
#: by assigning ``sim.flight`` directly.
_DEFAULT_FLIGHT: Any = None


def set_default_flight(recorder: Any) -> Any:
    """Set the flight recorder future simulators attach to; returns the
    old one.  Pass ``None`` to restore the unrecorded default."""
    global _DEFAULT_FLIGHT
    previous = _DEFAULT_FLIGHT
    _DEFAULT_FLIGHT = recorder
    return previous


class _Callback:
    """A heap cell carrying a bare callable — no event machinery.

    Cells are recycled through the simulator's freelist: after the
    dispatch loop invokes ``fn`` the cell goes back on the freelist, so a
    steady-state run (packet hops, NIC holds, retransmission timers)
    schedules timers with zero allocation beyond the heap tuple.
    """

    __slots__ = ("fn",)

    #: Class-level sentinel: the dispatch loop branches on the
    #: ``callbacks`` attribute (``None`` = bare-callable cell, a list =
    #: SimEvent), so the common SimEvent case pays one attribute load,
    #: not two class-identity checks.
    callbacks = None

    def __init__(self, fn: Callable[[], None] | None = None):
        self.fn = fn


class _TimerHandle:
    """A cancellable timer armed via :meth:`Simulator.schedule_timer`.

    Cancellation is a flag flip: a handle still sitting in the wheel is
    dropped at flush time (never reaching the heap); one already flushed
    is skipped when its tuple pops.  Either way the cancelled timer
    costs no event dispatch.
    """

    __slots__ = ("fn", "cancelled")

    #: See :class:`_Callback` — dispatch discriminator for the loop.
    callbacks = None

    def __init__(self, fn: Callable[[], None]):
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "armed"
        return f"<_TimerHandle {state} fn={self.fn!r}>"


class Simulator:
    """A deterministic discrete-event simulator.

    Time is a ``float`` in *microseconds* throughout this project (all cost
    models are expressed in µs and bytes/µs).

    Parameters
    ----------
    seed:
        Master seed for all named RNG streams (see :meth:`rng`).
    trace:
        If true, record :class:`~repro.sim.trace.TraceRecord` entries for
        component events (components call :meth:`record`).
    """

    def __init__(self, seed: int = 0, trace: bool = False):
        self._heap: list[tuple[float, int, int, Any]] = []
        #: Same-instant NORMAL-priority work, drained FIFO after any heap
        #: entries already due at the current time (see module docstring).
        #: Invariant: everything queued here was appended at the current
        #: ``_now``; the queue is always empty when time advances.
        self._now_q: deque[Any] = deque()
        #: Same-instant URGENT work (process boots/exits, head-of-line
        #: claims).  Drains before ``_now_q``; heap entries due now at
        #: URGENT priority still go first (they carry smaller seqs).
        self._now_uq: deque[Any] = deque()
        # Timer wheel: {slot_key: [entry, ...]} per level, entries are
        # ordinary heap tuples ``(when, priority, seq, _TimerHandle)``.
        self._wheel_l0: dict[float, list[tuple]] = {}
        self._wheel_l1: dict[float, list[tuple]] = {}
        self._wheel_overflow: list[tuple] = []
        #: Earliest slot start holding any wheel entry (``inf`` = empty).
        #: The dispatch loop flushes the wheel whenever the next event to
        #: process is at or past this time.
        self._wheel_next: float = _INF
        self._now: float = 0.0
        self._seq = count()
        self._cb_freelist: list[_Callback] = []
        self._rngs = RngRegistry(seed)
        self.seed = seed
        self.trace = Tracer(enabled=trace)
        #: Metrics registry (duck-typed; see :func:`set_default_metrics`).
        #: ``None`` disables all instrumentation.
        self.metrics = _DEFAULT_METRICS
        #: Per-packet flight recorder (duck-typed; see
        #: :func:`set_default_flight`).  ``None`` disables hop recording:
        #: every instrumentation site is a single attribute check, and a
        #: recorder never touches the event queue, so attached and
        #: detached runs replay byte-identically.
        self.flight = _DEFAULT_FLIGHT
        #: Events processed by :meth:`run` over this simulator's lifetime.
        self.events_processed = 0
        # Shadow the `timeout` method with a C-level partial: one Timeout
        # is created per modelled wait, and the pure-Python wrapper frame
        # was ~10% of kernel microbenchmark time.
        self.timeout = partial(Timeout, self)
        #: Set by :meth:`close`; a closed simulator refuses to run.
        self._closed = False
        KERNEL_COUNTERS.simulators += 1

    # -- clock & introspection -------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    def __repr__(self) -> str:
        queued = (
            len(self._heap)
            + len(self._now_q)
            + len(self._now_uq)
            + sum(len(b) for b in self._wheel_l0.values())
            + sum(len(b) for b in self._wheel_l1.values())
            + len(self._wheel_overflow)
        )
        return f"<Simulator t={self._now:.3f}us queued={queued}>"

    # -- event factories ---------------------------------------------------
    def event(self, name: str | None = None) -> SimEvent:
        """Create a fresh, untriggered event."""
        return SimEvent(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` µs from now.

        (Shadowed per instance by a ``partial(Timeout, self)`` in
        ``__init__``; this definition documents the signature and serves
        unpickled/copied instances.)
        """
        return Timeout(self, delay, value)

    def process(
        self,
        generator: Generator[SimEvent, Any, Any],
        name: str | None = None,
    ) -> Process:
        """Start driving *generator* as a simulation process."""
        return Process(self, generator, name=name)

    def all_of(self, events: list[SimEvent]) -> AllOf:
        return AllOf(self, events)

    def rng(self, name: str):
        """A named, deterministic ``random.Random`` stream."""
        return self._rngs.get(name)

    def record(self, component: str, category: str, **fields: Any) -> None:
        """Append a trace record at the current time (no-op if disabled)."""
        if self.trace.enabled:
            self.trace.record(self._now, component, category, fields)

    # -- scheduling --------------------------------------------------------
    def schedule_callback(
        self, when: float, fn: Callable[[], None], priority: int = NORMAL
    ) -> None:
        """Run bare ``fn()`` at absolute time *when* (>= now).

        The allocation-free timer primitive: no :class:`SimEvent`, no
        callback list — just a recycled :class:`_Callback` cell on the
        heap (or the now-queue when *when* is the current instant).  Use
        it for fire-and-forget work (resource releases, packet-hop
        holds); use :meth:`schedule_timer` when the timer may need
        cancelling, and :meth:`event`/:meth:`timeout` when something
        needs to *wait* on the result.
        """
        if when < self._now:
            raise ValueError(
                f"schedule_callback({when}) is in the past (now={self._now})"
            )
        freelist = self._cb_freelist
        if freelist:
            cell = freelist.pop()
            cell.fn = fn
        else:
            cell = _Callback(fn)
        if when == self._now:
            if priority == 1:
                self._now_q.append(cell)
            else:
                self._now_uq.append(cell)
        else:
            heapq.heappush(self._heap, (when, priority, next(self._seq), cell))

    def schedule_timer(
        self, when: float, fn: Callable[[], None], priority: int = NORMAL
    ) -> _TimerHandle:
        """Arm a cancellable timer: ``fn()`` at *when* (> now), O(1) cancel.

        The returned handle's :meth:`~_TimerHandle.cancel` defuses the
        timer without heap surgery.  Timers due within one wheel slot go
        straight to the heap; everything further out lands in the wheel
        and only reaches the heap if still live when its slot flushes.
        The ``(when, priority, seq)`` key is fixed at arm time, so wheel
        routing never changes execution order.
        """
        if when <= self._now:
            raise ValueError(
                f"schedule_timer({when}) is not in the future (now={self._now})"
            )
        handle = _TimerHandle(fn)
        entry = (when, priority, next(self._seq), handle)
        distance = when - self._now
        if distance < _WHEEL_G0:
            heapq.heappush(self._heap, entry)
            return handle
        if distance < _WHEEL_SPAN0:
            key = when // _WHEEL_G0
            self._wheel_l0.setdefault(key, []).append(entry)
            start = key * _WHEEL_G0
        elif distance < _WHEEL_SPAN1:
            key = when // _WHEEL_G1
            self._wheel_l1.setdefault(key, []).append(entry)
            start = key * _WHEEL_G1
        else:
            self._wheel_overflow.append(entry)
            start = (when // _WHEEL_G1) * _WHEEL_G1
        if start < self._wheel_next:
            self._wheel_next = start
        KERNEL_COUNTERS.wheel_armed += 1
        return handle

    def _flush_wheel(self, upto: float) -> None:
        """Move every wheel entry that could be due by *upto* to the heap.

        Slots whose start lies at or before *upto* are emptied: live
        entries are heap-pushed under their original ``(when, priority,
        seq)`` key, cancelled entries are dropped without ever touching
        the heap.  Level-1 slots cascade into level-0 (or the heap);
        the overflow list re-buckets once its earliest entry comes
        within level-1 reach.
        """
        heap = self._heap
        push = heapq.heappush
        l0 = self._wheel_l0
        l1 = self._wheel_l1
        flushed = 0
        dropped = 0
        overflow = self._wheel_overflow
        if overflow:
            keep = []
            for entry in overflow:
                if entry[3].cancelled:
                    dropped += 1
                elif entry[0] - upto < _WHEEL_SPAN1:
                    key = entry[0] // _WHEEL_G1
                    l1.setdefault(key, []).append(entry)
                else:
                    keep.append(entry)
            self._wheel_overflow = overflow = keep
        if l1:
            for key in [k for k in l1 if k * _WHEEL_G1 <= upto]:
                for entry in l1.pop(key):
                    if entry[3].cancelled:
                        dropped += 1
                    elif (entry[0] // _WHEEL_G0) * _WHEEL_G0 <= upto:
                        push(heap, entry)
                        flushed += 1
                    else:
                        l0.setdefault(entry[0] // _WHEEL_G0, []).append(entry)
        if l0:
            for key in [k for k in l0 if k * _WHEEL_G0 <= upto]:
                for entry in l0.pop(key):
                    if entry[3].cancelled:
                        dropped += 1
                    else:
                        push(heap, entry)
                        flushed += 1
        nxt = _INF
        if l0:
            nxt = min(l0) * _WHEEL_G0
        if l1:
            start = min(l1) * _WHEEL_G1
            if start < nxt:
                nxt = start
        if overflow:
            start = (min(e[0] for e in overflow) // _WHEEL_G1) * _WHEEL_G1
            if start < nxt:
                nxt = start
        self._wheel_next = nxt
        KERNEL_COUNTERS.wheel_flushed += flushed
        KERNEL_COUNTERS.wheel_cancelled += dropped

    # -- run loop ----------------------------------------------------------
    def run(self, until: float | SimEvent | None = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the event queue drains;
        * a ``float`` — run until simulated time reaches that instant
          (``inf`` drains the queue and, like ``None``, leaves the clock
          at the last event);
        * a :class:`SimEvent` — run until that event is processed, and
          return its value (raising its exception if it failed).
        """
        if self._closed:
            raise RuntimeError("cannot run a closed simulator")
        if isinstance(until, SimEvent):
            if not until.processed:
                flag: list[bool] = []
                until.add_callback(lambda _ev: flag.append(True))
                self._dispatch(_INF, flag)
                if not flag:
                    raise RuntimeError(
                        f"simulation ran out of events before {until!r} "
                        "triggered"
                    )
            if not until.ok:
                raise until.value
            return until.value

        horizon = _INF if until is None else float(until)
        if horizon < self._now:
            raise ValueError(f"run(until={horizon}) is in the past")
        self._dispatch(horizon, None)
        if horizon < _INF:
            self._now = horizon
        return None

    def close(self) -> None:
        """Drop all queued work and refuse to run again.

        Queued events lose their callbacks and timers their functions,
        and a process waiting on dropped work is ended.  A resource whose
        hold is dropped (a hold's end, or the grant that starts one) is
        closed too, and the processes queued on it are ended after those.
        Owners end the processes they keep first.  Closing twice is
        harmless.
        """
        self._closed = True
        # The per-instance partial refers back to the simulator.
        vars(self).pop("timeout", None)
        wheel = (self._wheel_l0, self._wheel_l1)
        queued: list[SimEvent] = []
        while True:
            work = [entry[3] for entry in self._heap]
            for bucket in [b for level in wheel for b in level.values()]:
                work += [entry[3] for entry in bucket]
            work += [entry[3] for entry in self._wheel_overflow]
            work += self._now_q
            work += self._now_uq
            work += queued
            if not work:
                break
            for queue in (self._heap, self._now_q, self._now_uq,
                          self._wheel_overflow, *wheel):
                queue.clear()
            held: list[Resource] = []
            for item in work:
                if not isinstance(item, SimEvent):
                    item.fn = None
                    continue
                callbacks, item.callbacks = item.callbacks, []
                for callback in callbacks:
                    # A waiting process holds itself through its resume
                    # callback: end it.  A hold's end and its grant run
                    # a method of the resource.
                    owner = getattr(callback, "__self__", None)
                    if isinstance(owner, Process):
                        owner.close()
                    elif isinstance(owner, Resource):
                        held.append(owner)
            queued = [ev for res in held for ev in res.close()]
            work = item = callbacks = owner = held = None
        self._wheel_next = _INF

    def _dispatch(self, horizon: float, stop: list[bool] | None) -> None:
        """The kernel's one dispatch loop, behind every :meth:`run` mode.

        Runs events in ``(when, priority, seq)`` order until the queue
        drains, the next event lies past *horizon*, or *stop* turns
        truthy.  *stop* is tested only after a :class:`SimEvent`
        dispatch — the only way the callback that sets it can run — so
        ``run(until=event)`` returns as soon as that event's callbacks
        have run, leaving same-instant work behind it queued.  Heap, queues and helpers are hoisted into locals and the
        lifetime counters are updated once per call, not once per event.
        """
        heap = self._heap
        q = self._now_q
        uq = self._now_uq
        pop = heapq.heappop
        popleft = q.popleft
        upopleft = uq.popleft
        cb_cls = _Callback
        freelist = self._cb_freelist
        n = 0
        nb = 0
        ns = 0
        now_val = self._now
        try:
            while True:
                if uq:
                    # Urgent heap entries due now carry smaller seqs and go
                    # first; NORMAL heap entries wait behind the urgent
                    # queue (priority outranks seq).
                    if heap and heap[0][0] == now_val and heap[0][1] == 0:
                        _w, _p, _s, event = pop(heap)
                    else:
                        event = upopleft()
                        nb += 1
                elif q:
                    # No wheel check while the queue drains: timers always
                    # land in slots strictly after their arm time, and
                    # every time-advancing pop below flushes first, so
                    # ``_wheel_next > _now`` holds.
                    if heap and heap[0][0] == now_val:
                        _w, _p, _s, event = pop(heap)
                    else:
                        event = popleft()
                        nb += 1
                elif heap:
                    when = heap[0][0]
                    wnext = self._wheel_next
                    if wnext <= when and wnext <= horizon:
                        self._flush_wheel(when if when < horizon else horizon)
                        continue
                    if when > horizon:
                        break
                    when, _p, _s, event = pop(heap)
                    self._now = now_val = when
                else:
                    # Only wheel timers remain.  An unbounded call flushes
                    # the earliest slot, a bounded one everything up to its
                    # horizon; an empty wheel (``inf``) ends either.
                    wnext = self._wheel_next
                    if wnext == _INF or wnext > horizon:
                        break
                    self._flush_wheel(wnext if horizon == _INF else horizon)
                    continue
                callbacks = event.callbacks
                if callbacks is not None:
                    n += 1
                    event.callbacks = None
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for cb in callbacks:
                            cb(event)
                    if stop:
                        break
                elif event.__class__ is cb_cls:
                    n += 1
                    fn = event.fn
                    event.fn = None
                    freelist.append(event)
                    fn()
                elif not event.cancelled:
                    n += 1
                    event.fn()
                else:
                    # Defused _TimerHandle that had already flushed (or
                    # bypassed) the wheel: discard, no dispatch.
                    ns += 1
        finally:
            self.events_processed += n
            KERNEL_COUNTERS.events += n
            KERNEL_COUNTERS.batched_events += nb
            KERNEL_COUNTERS.wheel_skipped += ns
