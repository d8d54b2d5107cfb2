"""Sampled per-packet flight recorder.

The registry (:mod:`repro.obs.registry`) answers *how much*; the flight
recorder answers *where did this message's time go*.  Each sampled root
message gets a **trace id**, stamped into ``PacketHeader.trace_id`` at
the post and carried through fragmentation, NIC forwarding (``clone``
copies the header), retransmission, and recovery replay.  Instrumented
layers append **hop events** — host post, DMA, SRAM copy, transmit,
fabric injection, link-claim queueing, delivery, host delivery, ack,
drops — through the duck-typed ``sim.flight`` slot, exactly like
``sim.metrics``:

```python
fr = sim.flight
if fr is not None and pkt.header.trace_id >= 0:
    fr.record(now, pkt.header.trace_id, "deliver", dst, pkt.uid, chunk)
```

With no recorder attached that is one attribute check per site; with one
attached, recording packs the event's fixed fields into one fixed-width
row of a ``bytearray`` and appends the ``extra`` dict's values to a
parallel list.  The recorder never touches the event queue, so attached
and detached runs replay byte-identically (the golden-trace tests pin
this).

**Storage.**  A row holds ``when`` (a double), the trace id, a stage
code, ``node``, ``uid``, ``chunk`` and an extra-shape code; each
recorder interns its own stage names, ``extra`` key tuples and gauge
names behind those codes.  A gauge sample
(:meth:`FlightRecorder.gauge`) and a one-key ``extra`` keep their bare
value, any other ``extra`` the tuple of its values, so on a serving
run's event mix a stored event costs about 47 bytes
(``tests/obs/test_flight.py`` bounds it).  Reading
:attr:`FlightRecorder.events` rebuilds exactly the tuples that were
recorded — one pass over the ring — so read it once per analysis, not
inside a loop.

**Per-origin trace ids.**  Trace ids are allocated per *origin* node
(``origin * ORIGIN_STRIDE + n``-th post from that origin), and the
sampling decision is a deterministic per-origin counter walk — no RNG,
no global allocator.  An origin's trace ids therefore depend only on
its own posts: traffic from other nodes cannot renumber them, and a
replay of the same scenario assigns the same ids.

The critical-path analyzer over these events lives in
:mod:`repro.obs.critical`.
"""

from __future__ import annotations

import struct
from typing import Any, Iterable

__all__ = [
    "FlightRecorder",
    "FlightEvent",
    "ORIGIN_STRIDE",
    "STAGES",
    "EV_WHEN",
    "EV_TRACE",
    "EV_STAGE",
    "EV_NODE",
    "EV_UID",
    "EV_CHUNK",
    "EV_EXTRA",
    "event_to_dict",
    "gauge_series",
]

#: Trace ids are ``origin * ORIGIN_STRIDE + per-origin-sequence``: unique
#: across origins without any global allocator.
ORIGIN_STRIDE = 1 << 20

#: Every stage a hop event may carry (documentation + render order).
STAGES = (
    "post",          # root message posted at the host
    "dma",           # host -> NIC SRAM DMA of one chunk
    "sram_copy",     # NIC-forwarding SRAM copy of a held chunk
    "tx",            # packet built/queued at a NIC (attempt/replay flags)
    "inject",        # fabric traversal starts (src NIC -> wire)
    "queue",         # link-claim wait ended (carries the wait)
    "deliver",       # fabric delivered the packet to the dst NIC sink
    "host_deliver",  # RecvCompletion surfaced to the host port
    "ack",           # (m)cast ack matched to an in-window record
    "retransmit",    # timeout/laggard retransmission leaving a NIC
    "drop",          # injected-loss drop
    "failure_drop",  # dead-link / unroutable drop
    "regraft",       # recovery heal applied (global note, trace_id = -1)
    "gauge",         # gauge sample (global note, trace_id = -1)
)

#: A hop event, as :attr:`FlightRecorder.events` returns it, is a plain
#: tuple (picklable):
#: ``(when, trace_id, stage, node, uid, chunk, extra)``.
FlightEvent = tuple
EV_WHEN, EV_TRACE, EV_STAGE, EV_NODE, EV_UID, EV_CHUNK, EV_EXTRA = range(7)


#: One stored event's fixed fields: ``when`` (double), ``trace_id``
#: (int64), stage code (uint8), ``node`` (int32), ``uid`` (int64),
#: ``chunk`` (int32), extra-shape code (uint16).  A value outside its
#: field's range raises :class:`struct.error`.
_ROW = struct.Struct("<dqBiqiH")
#: The trace-id field alone, for scans that need nothing else.
_ROW_TRACE = struct.Struct(f"<8xq{_ROW.size - 16}x")
#: How many stage names / extra key shapes a code field can tell apart.
_STAGE_CODES = 1 << 8
_SHAPE_CODES = 1 << 16


class FlightRecorder:
    """Bounded recorder of hop events for sampled root messages.

    Parameters
    ----------
    sample:
        Fraction of root messages to trace, in ``[0, 1]``.  The decision
        is deterministic per origin (the ``n``-th post from an origin is
        sampled iff ``floor((n+1)*sample) > floor(n*sample)``), so
        ``1.0`` traces everything and ``0.0`` nothing — no RNG draw, no
        perturbation of seeded streams.
    cap:
        Ring-buffer capacity in events, an int ``>= 1``.  When full, the
        oldest events are overwritten and :attr:`dropped` counts the
        overwrites.
    """

    __slots__ = ("sample", "cap", "dropped", "_rows", "_extras", "_write",
                 "_origin_seq", "_stages", "_stage_code", "_shapes",
                 "_shape_code", "_gauge_code")

    def __init__(self, sample: float = 1.0, cap: int = 1 << 18):
        if not 0.0 <= sample <= 1.0:
            raise ValueError(f"sample must be in [0, 1], got {sample}")
        if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
            raise ValueError(f"cap must be an int >= 1, got {cap!r}")
        self.sample = sample
        self.cap = cap
        self.dropped = 0
        #: ``_ROW``-packed fixed fields, one row per stored event
        self._rows = bytearray()
        #: per stored event: ``None``, the bare value of a one-key extra,
        #: or the tuple of an extra's values
        self._extras: list[Any] = []
        self._write = 0
        self._origin_seq: dict[int, int] = {}
        self._stages: list[str] = []
        self._stage_code: dict[str, int] = {}
        #: shape code -> extra's key tuple, or a gauge's name (a str);
        #: code 0 is "no extra" (None)
        self._shapes: list[tuple | str | None] = [None]
        self._shape_code: dict[tuple, int] = {}
        self._gauge_code: dict[str, int] = {}

    # -- recording (hot path when attached) --------------------------------
    def begin(
        self,
        when: float,
        origin: int,
        kind: str,
        size: int = 0,
        group: int | None = None,
        msg_id: int = 0,
    ) -> int:
        """Open a trace for a root message posted at *origin*.

        Returns the trace id to stamp into the message's packets, or
        ``-1`` when this post falls outside the sampling fraction.
        """
        n = self._origin_seq.get(origin, 0)
        self._origin_seq[origin] = n + 1
        if int((n + 1) * self.sample) - int(n * self.sample) <= 0:
            return -1
        tid = origin * ORIGIN_STRIDE + n
        self.record(when, tid, "post", origin, -1, 0, {
            "kind": kind, "size": size, "group": group, "msg_id": msg_id,
        })
        return tid

    def record(
        self,
        when: float,
        trace_id: int,
        stage: str,
        node: int,
        uid: int = -1,
        chunk: int = 0,
        extra: dict[str, Any] | None = None,
    ) -> None:
        """Store one hop event (ring semantics once *cap* is reached).

        *when* is stored as a double: a time passed as an int comes back
        from :attr:`events` as the equal float.  *extra*'s keys and their
        order are kept, and its values are the same objects on read.
        """
        if extra is None:
            shape = 0
            values = None
        else:
            keys = tuple(extra)
            shape = self._shape_code.get(keys)
            if shape is None:
                shape = self._intern(
                    self._shape_code, self._shapes, keys, _SHAPE_CODES
                )
            values = extra[keys[0]] if len(keys) == 1 else tuple(
                extra.values()
            )
        self._store(when, trace_id, stage, node, uid, chunk, shape, values)

    def gauge(self, when: float, node: int, name: str, value: Any) -> None:
        """A gauge sample: what ``note(when, "gauge", node, name=name,
        value=value)`` records, stored without a dict or a tuple.

        The name (a ``str``, so it never reads as an extra's key tuple)
        is interned into the row's extra-shape code, and only *value*,
        the same object on read, takes a slot of its own.
        """
        shape = self._gauge_code.get(name)
        if shape is None:
            if type(name) is not str:
                raise TypeError(f"gauge name must be a str, got {name!r}")
            shape = self._intern(
                self._gauge_code, self._shapes, name, _SHAPE_CODES
            )
        self._store(when, -1, "gauge", node, -1, 0, shape, value)

    def _store(self, when: float, trace_id: int, stage: str, node: int,
               uid: int, chunk: int, shape: int, values: Any) -> None:
        """The one ring write behind :meth:`record` and :meth:`gauge`."""
        code = self._stage_code.get(stage)
        if code is None:
            code = self._intern(
                self._stage_code, self._stages, stage, _STAGE_CODES
            )
        extras = self._extras
        if len(extras) < self.cap:
            self._rows += _ROW.pack(
                when, trace_id, code, node, uid, chunk, shape
            )
            extras.append(values)
        else:
            slot = self._write % self.cap
            _ROW.pack_into(
                self._rows, slot * _ROW.size,
                when, trace_id, code, node, uid, chunk, shape,
            )
            extras[slot] = values
            self.dropped += 1
        self._write += 1

    def note(self, when: float, stage: str, node: int,
             **extra: Any) -> None:
        """A global (trace-less) annotation event, e.g. a recovery heal."""
        self.record(when, -1, stage, node, -1, 0, extra)

    @staticmethod
    def _intern(codes: dict, table: list, key: Any, limit: int) -> int:
        """The next code of *table* for *key*; raises once *limit* is hit."""
        if len(table) == limit:
            raise ValueError(
                f"flight recorder has no code left for {key!r}: its code "
                f"field holds {limit} distinct values"
            )
        code = codes[key] = len(table)
        table.append(key)
        return code

    # -- reading / merging -------------------------------------------------
    def __len__(self) -> int:
        return len(self._extras)

    @property
    def events(self) -> list[FlightEvent]:
        """Recorded events in append order (ring rotation undone).

        Rebuilds every event tuple from the packed ring on each read.
        """
        stages = self._stages
        shapes = self._shapes
        out = []
        append = out.append
        for (when, tid, code, node, uid, chunk, shape), values in zip(
            _ROW.iter_unpack(self._rows), self._extras
        ):
            keys = shapes[shape]
            if keys is None:
                extra = None
            elif type(keys) is str:  # a gauge's name
                extra = {"name": keys, "value": values}
            elif len(keys) == 1:
                extra = {keys[0]: values}
            else:
                extra = dict(zip(keys, values))
            append((when, tid, stages[code], node, uid, chunk, extra))
        if self.dropped:
            split = self._write % self.cap
            return out[split:] + out[:split]
        return out

    def traces(self) -> list[int]:
        """All trace ids seen, in first-appearance order."""
        rows = self._rows
        if self.dropped:
            split = self._write % self.cap * _ROW.size
            rows = rows[split:] + rows[:split]
        seen: dict[int, None] = {}
        for (tid,) in _ROW_TRACE.iter_unpack(rows):
            if tid >= 0 and tid not in seen:
                seen[tid] = None
        return list(seen)


def event_to_dict(ev: FlightEvent) -> dict[str, Any]:
    """One hop event as a JSON-ready dict."""
    out: dict[str, Any] = {
        "t": ev[EV_WHEN],
        "trace": ev[EV_TRACE],
        "stage": ev[EV_STAGE],
        "node": ev[EV_NODE],
    }
    if ev[EV_UID] >= 0:
        out["uid"] = ev[EV_UID]
    if ev[EV_CHUNK]:
        out["chunk"] = ev[EV_CHUNK]
    if ev[EV_EXTRA]:
        out.update(ev[EV_EXTRA])
    return out


def gauge_series(
    events: Iterable[FlightEvent],
) -> dict[str, list[tuple[float, int, float]]]:
    """Gauge samples grouped by name: ``{name: [(t, node, value), ...]}``.

    Feed the result to
    :func:`repro.obs.timeline.counter_events` to render the series as
    Chrome trace ``"C"`` counter tracks.
    """
    series: dict[str, list[tuple[float, int, float]]] = {}
    for ev in events:
        if ev[EV_STAGE] != "gauge":
            continue
        extra = ev[EV_EXTRA] or {}
        name = extra.get("name", "gauge")
        series.setdefault(name, []).append(
            (ev[EV_WHEN], ev[EV_NODE], extra.get("value", 0))
        )
    return series
