"""Flight-recorder unit behavior, the packed ring's contract, and the
non-perturbation guarantees.

The recorder's core promise is that attaching it never moves an event:
instrumentation sites do one attribute check when detached and, when
attached, one call that packs a fixed-width row into the recorder's byte
ring; neither touches the event queue.  The tests here pin that promise
against the two committed golden fixtures — the 54-record 8-node
multicast trace and the fig3 quick tables — with the recorder attached
at ``sample=1.0`` and detached, and pin the recorded hop stream itself
against ``golden_flight.txt``.

:class:`ListFlightRecorder` keeps every event as a tuple in a list, as
the recorder itself once did.  It is the reference the packed ring must
match event for event, and the storage the memory bound is measured
against.
"""

import gc
import hashlib
import struct
import tracemalloc
from pathlib import Path
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.flight import (
    EV_EXTRA,
    EV_STAGE,
    EV_TRACE,
    ORIGIN_STRIDE,
    STAGES,
    FlightEvent,
    FlightRecorder,
    event_to_dict,
    gauge_series,
)

from tests.mcast.test_golden_trace import FIXTURE, golden_lines

FLIGHT_FIXTURE = Path(__file__).with_name("golden_flight.txt")
SELFHEAL_SPEC = (
    Path(__file__).resolve().parents[2]
    / "examples" / "scenarios" / "clos_failures_selfheal.json"
)


class ListFlightRecorder:
    """Reference recorder: one ``(when, ..., extra)`` tuple per event."""

    def __init__(self, sample: float = 1.0, cap: int = 1 << 18):
        if not 0.0 <= sample <= 1.0:
            raise ValueError(f"sample must be in [0, 1], got {sample}")
        if cap < 1:
            raise ValueError(f"cap must be >= 1, got {cap}")
        self.sample = sample
        self.cap = cap
        self.dropped = 0
        self._events: list[FlightEvent] = []
        self._write = 0
        self._origin_seq: dict[int, int] = {}

    def begin(self, when: float, origin: int, kind: str, size: int = 0,
              group: int | None = None, msg_id: int = 0) -> int:
        n = self._origin_seq.get(origin, 0)
        self._origin_seq[origin] = n + 1
        if int((n + 1) * self.sample) - int(n * self.sample) <= 0:
            return -1
        tid = origin * ORIGIN_STRIDE + n
        self.record(when, tid, "post", origin, -1, 0, {
            "kind": kind, "size": size, "group": group, "msg_id": msg_id,
        })
        return tid

    def record(self, when: float, trace_id: int, stage: str, node: int,
               uid: int = -1, chunk: int = 0,
               extra: dict[str, Any] | None = None) -> None:
        ev = (when, trace_id, stage, node, uid, chunk, extra)
        events = self._events
        if len(events) < self.cap:
            events.append(ev)
        else:
            events[self._write % self.cap] = ev
            self.dropped += 1
        self._write += 1

    def note(self, when: float, stage: str, node: int,
             **extra: Any) -> None:
        self.record(when, -1, stage, node, -1, 0, extra)

    def gauge(self, when: float, node: int, name: str, value: Any) -> None:
        self.note(when, "gauge", node, name=name, value=value)

    def __len__(self) -> int:
        return len(self._events)

    @property
    def events(self) -> list[FlightEvent]:
        if self.dropped:
            split = self._write % self.cap
            return self._events[split:] + self._events[:split]
        return list(self._events)

    def traces(self) -> list[int]:
        seen: dict[int, None] = {}
        for ev in self.events:
            tid = ev[EV_TRACE]
            if tid >= 0 and tid not in seen:
                seen[tid] = None
        return list(seen)


# -- unit behavior ----------------------------------------------------------

def test_trace_ids_are_per_origin():
    fr = FlightRecorder()
    assert fr.begin(0.0, 3, "mcast") == 3 * ORIGIN_STRIDE
    assert fr.begin(1.0, 3, "mcast") == 3 * ORIGIN_STRIDE + 1
    assert fr.begin(2.0, 5, "unicast") == 5 * ORIGIN_STRIDE
    assert fr.traces() == [
        3 * ORIGIN_STRIDE, 3 * ORIGIN_STRIDE + 1, 5 * ORIGIN_STRIDE
    ]


def test_sampling_is_a_deterministic_counter_walk():
    fr = FlightRecorder(sample=0.25)
    tids = [fr.begin(float(i), 0, "mcast") for i in range(20)]
    sampled = [i for i, t in enumerate(tids) if t >= 0]
    assert len(sampled) == 5  # floor walk: exactly a quarter
    # Re-running the same walk gives the same decisions.
    fr2 = FlightRecorder(sample=0.25)
    assert [fr2.begin(float(i), 0, "m") for i in range(20)] == tids


def test_sample_zero_records_nothing():
    fr = FlightRecorder(sample=0.0)
    assert fr.begin(0.0, 0, "mcast") == -1
    assert len(fr) == 0


def test_ring_overwrites_oldest_and_reorders_on_read():
    fr = FlightRecorder(cap=4)
    for i in range(6):
        fr.record(float(i), 0, "tx", node=0, uid=i)
    assert fr.dropped == 2
    assert [ev[4] for ev in fr.events] == [2, 3, 4, 5]


def test_event_to_dict_and_gauge_series():
    fr = FlightRecorder()
    fr.note(2.0, "gauge", 3, name="nic.send_buffers_in_use", value=5)
    fr.note(4.0, "gauge", 3, name="nic.send_buffers_in_use", value=2)
    ev = fr.events[0]
    assert event_to_dict(ev) == {
        "t": 2.0, "trace": -1, "stage": "gauge", "node": 3,
        "name": "nic.send_buffers_in_use", "value": 5,
    }
    assert gauge_series(fr.events) == {
        "nic.send_buffers_in_use": [(2.0, 3, 5), (4.0, 3, 2)],
    }


def test_gauge_reads_back_as_the_note_it_replaces():
    via_gauge, via_note = FlightRecorder(), FlightRecorder()
    value = 2**70  # an object no cache shares
    for t, node, name, v in [
        (1.0, 3, "nic.send_buffers_in_use", 5),
        (2.0, 4, "nic.recv_buffers_in_use", 0),
        (3.0, 3, "nic.send_buffers_in_use", value),
        (4.0, 0, "proto.send_window_depth", 1.5),
    ]:
        via_gauge.gauge(t, node, name, v)
        via_note.note(t, "gauge", node, name=name, value=v)
    assert repr(via_gauge.events) == repr(via_note.events)
    assert via_gauge.events[2][EV_EXTRA]["value"] is value
    assert gauge_series(via_gauge.events) == gauge_series(via_note.events)
    assert via_gauge.traces() == [] and len(via_gauge) == 4


def test_gauge_names_and_extra_shapes_stay_apart():
    fr = FlightRecorder()
    fr.record(1.0, -1, "gauge", 0, extra={"depth": 1})
    fr.gauge(2.0, 0, "depth", 2)
    fr.note(3.0, "gauge", 0, name="depth", value=3)
    fr.gauge(4.0, 0, "name", 4)
    fr.record(5.0, -1, "gauge", 0, extra={"name": 5})
    assert [ev[EV_EXTRA] for ev in fr.events] == [
        {"depth": 1},
        {"name": "depth", "value": 2},
        {"name": "depth", "value": 3},
        {"name": "name", "value": 4},
        {"name": 5},
    ]
    with pytest.raises(TypeError, match="gauge name"):
        fr.gauge(6.0, 0, ("depth",), 6)
    assert len(fr) == 5


@pytest.mark.parametrize("cap", [2.5, True, 0, "8"])
def test_cap_must_be_an_int_at_least_one(cap):
    with pytest.raises(ValueError, match="cap"):
        FlightRecorder(cap=cap)


def test_int_time_comes_back_as_the_equal_float():
    fr = FlightRecorder()
    fr.record(7, 0, "tx", 1)
    (ev,) = fr.events
    assert ev[0] == 7.0 and type(ev[0]) is float


def test_extras_keep_shape_key_order_and_value_objects():
    fr = FlightRecorder()
    unreachable = [16, 32]
    fr.note(1.0, "regraft", -1, group=3, mode="tree_repair",
            unreachable=unreachable)
    fr.record(2.0, 0, "tx", 1, 5, 0, {"attempt": 0, "dst": 2,
                                      "replay": True})
    fr.record(2.0, 0, "tx", 1, 6, 0, {"dst": 2, "attempt": 1})
    fr.begin(3.0, 0, "unicast", size=64)
    fr.record(4.0, 0, "deliver", 2, 5, 0, {"src": 1})
    fr.record(5.0, 0, "deliver", 2, 5, 0, {})
    fr.record(6.0, 0, "host_deliver", 2, 5, 0, None)
    extras = [ev[EV_EXTRA] for ev in fr.events]
    assert extras[0]["unreachable"] is unreachable
    assert [list(x) for x in extras[:5]] == [
        ["group", "mode", "unreachable"],
        ["attempt", "dst", "replay"],
        ["dst", "attempt"],
        ["kind", "size", "group", "msg_id"],
        ["src"],
    ]
    assert extras[1]["replay"] is True
    assert extras[3]["group"] is None
    assert extras[5] == {} and extras[6] is None


def test_code_fields_raise_instead_of_wrapping():
    fr = FlightRecorder()
    for i in range(256):
        fr.record(0.0, -1, f"s{i}", 0)
    with pytest.raises(ValueError, match="no code left for 'one more'"):
        fr.record(0.0, -1, "one more", 0)
    for i in range(65535):
        fr.record(0.0, -1, "s0", 0, extra={f"k{i}": i})
    with pytest.raises(ValueError, match=r"no code left for \('one more',\)"):
        fr.record(0.0, -1, "s0", 0, extra={"one more": 0})
    # Gauge names draw on the same shape codes.
    with pytest.raises(ValueError, match="no code left for 'gauge name'"):
        fr.gauge(0.0, 0, "gauge name", 0)
    assert len(fr) == 256 + 65535
    fr.record(1.0, -1, "s255", 0, extra={"k65534": 0})
    assert fr.events[-1] == (1.0, -1, "s255", 0, -1, 0, {"k65534": 0})


def test_out_of_range_field_raises_and_stores_nothing():
    fr = FlightRecorder()
    with pytest.raises(struct.error):
        fr.record(0.0, 0, "tx", 1 << 31)
    assert len(fr) == 0 and fr.events == []


# -- the packed ring against the reference ----------------------------------

_INT32 = st.integers(-(1 << 31), (1 << 31) - 1)
_INT64 = st.integers(-(1 << 63), (1 << 63) - 1)
_WHEN = st.floats(allow_nan=False)
_KEYS = st.sampled_from((
    "name", "value", "dst", "src", "wait", "attempt", "replay", "group",
    "mode", "unreachable",
))
_VALUES = st.one_of(
    st.text(max_size=4), st.none(), st.booleans(),
    st.lists(st.integers(0, 64), max_size=3), st.integers(), _INT64,
    st.floats(),
)
_EXTRA = st.one_of(
    st.none(), st.just({}), st.dictionaries(_KEYS, _VALUES, max_size=4),
)
_STAGE = st.sampled_from(STAGES) | st.text(min_size=1, max_size=3)
_OP = st.one_of(
    st.tuples(
        st.just("begin"), _WHEN, st.integers(0, 3) | st.integers(0, 1 << 30),
        st.sampled_from(("mcast", "unicast")), st.integers(0, 1 << 20),
        st.none() | st.integers(0, 99), _INT64,
    ),
    st.tuples(
        st.just("record"), _WHEN, _INT64, _STAGE, _INT32, _INT64, _INT32,
        _EXTRA,
    ),
    st.tuples(
        st.just("note"), _WHEN, _STAGE, _INT32,
        st.dictionaries(_KEYS, _VALUES, max_size=3),
    ),
    st.tuples(
        st.just("gauge"), _WHEN, _INT32,
        _KEYS | st.sampled_from(("nic.send_buffers_in_use",
                                 "proto.send_window_depth")),
        _VALUES,
    ),
)


def _replay(recorder, ops) -> list[int]:
    """Drive *ops* into *recorder*; the trace ids ``begin`` returned."""
    began = []
    for op in ops:
        if op[0] == "begin":
            _, when, origin, kind, size, group, msg_id = op
            began.append(recorder.begin(
                when, origin, kind, size=size, group=group, msg_id=msg_id,
            ))
        elif op[0] == "record":
            recorder.record(*op[1:])
        elif op[0] == "gauge":
            recorder.gauge(*op[1:])
        else:
            _, when, stage, node, extra = op
            recorder.note(when, stage, node, **extra)
    return began


def _assert_same(packed: FlightRecorder, ref: ListFlightRecorder) -> None:
    assert repr(packed.events) == repr(ref.events)
    assert packed.traces() == ref.traces()
    assert len(packed) == len(ref)
    assert packed.dropped == ref.dropped


@settings(max_examples=200, deadline=None)
@given(
    sample=st.sampled_from((0.0, 0.25, 1.0)) | st.floats(0.0, 1.0),
    cap=st.integers(1, 8) | st.integers(1, 100),
    ops=st.lists(_OP, max_size=40),
)
def test_packed_ring_matches_reference(sample, cap, ops):
    packed = FlightRecorder(sample=sample, cap=cap)
    ref = ListFlightRecorder(sample=sample, cap=cap)
    assert _replay(packed, ops) == _replay(ref, ops)
    _assert_same(packed, ref)


# -- memory per stored event ------------------------------------------------

def _record_serving_mix(recorder, n: int) -> None:
    """*n* events in ``serving16_observed``'s proportions.

    Per ten events: four gauges (recorded with ``gauge()``, as the NIC
    and GM layers do), two injects, a deliver, an ack, a queue wait
    (each with a one-key extra) and a host delivery with no extra.
    Every event gets its own time, as simulated times do.
    """
    record = recorder.record
    gauge = recorder.gauge
    for i in range(n // 10):
        t = i * 10.0
        for node in range(4):
            gauge(t + node, node, "nic.send_buffers_in_use", i % 7)
        record(t + 4.0, i, "inject", 0, i, 0, {"dst": 3})
        record(t + 5.0, i, "inject", 0, i, 1, {"dst": 5})
        record(t + 6.0, i, "deliver", 3, i, 0, {"src": 0})
        record(t + 7.0, i, "ack", 0, i, 0, {"src": 3})
        record(t + 8.0, i, "queue", 0, i, 0, {"wait": t * 0.5})
        record(t + 9.0, i, "host_deliver", 3, i, 0)


def _bytes_per_event(factory, n: int = 50_000) -> float:
    """tracemalloc growth per event while recording the serving mix."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        recorder = factory()
        before = tracemalloc.get_traced_memory()[0]
        _record_serving_mix(recorder, n)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(recorder) == n
    return grown / n


def test_stored_event_memory_bound():
    assert _bytes_per_event(FlightRecorder) <= 56
    # The bound tells the packed ring from a tuple per event.
    assert _bytes_per_event(ListFlightRecorder) > 56


# -- non-perturbation against the golden fixtures ---------------------------

def test_golden_trace_identical_with_flight_attached():
    """Full-sampling hop recording must not move one of the 54 records."""
    fr = FlightRecorder(sample=1.0)
    attached = golden_lines(flight=fr)
    assert attached == FIXTURE.read_text().splitlines()
    # ...and the recorder actually saw the whole flight.
    events = fr.events
    stages = {ev[EV_STAGE] for ev in events}
    assert {"post", "tx", "inject", "deliver", "host_deliver",
            "drop"} <= stages
    # The forced loss puts a Go-back-N resend on the wire: at least one
    # transmission with attempt > 0.
    assert any(
        ev[EV_STAGE] == "tx" and (ev[EV_EXTRA] or {}).get("attempt", 0) > 0
        for ev in events
    )
    assert fr.traces() == [0]  # one root message, origin 0, first post


def test_fig3_quick_tables_identical_with_flight_attached(quick_figure):
    """The fig3 sweep renders byte-identically attached vs detached."""
    from repro.experiments.cli import run_figure
    from repro.sim.engine import set_default_flight

    detached = quick_figure("fig3").render()
    previous = set_default_flight(FlightRecorder(sample=1.0))
    try:
        attached = run_figure("fig3", quick=True, jobs=1).render()
    finally:
        set_default_flight(previous)
    assert attached == detached


# -- golden hop stream -------------------------------------------------------

#: Extra keys whose values come from process-global allocators.
_ALLOCATED_KEYS = ("msg_id", "group")


def canonical_events(events):
    """Hop events with allocator-dependent ids made run-relative.

    Packet uids, message ids and group ids come from process-global
    counters, so their absolute values depend on which tests ran earlier
    in the process.  Each is shifted by the smallest value the stream
    holds; the shift keeps every value's type, so ``repr`` still catches
    a change of value, type or order anywhere in an event.
    """
    base = {"uid": min((ev[4] for ev in events if ev[4] >= 0), default=0)}
    for key in _ALLOCATED_KEYS:
        base[key] = min(
            (ev[6][key] for ev in events
             if ev[6] and ev[6].get(key) is not None),
            default=0,
        )
    out = []
    for when, tid, stage, node, uid, chunk, extra in events:
        if uid >= 0:
            uid -= base["uid"]
        if extra:
            extra = {
                k: v - base[k] if k in base and v is not None else v
                for k, v in extra.items()
            }
        out.append((when, tid, stage, node, uid, chunk, extra))
    return out


def golden_flight_lines():
    """The pinned hop stream, one line per fixture entry.

    The ``repr`` of every event of the golden 8-node multicast at full
    sampling, then the event count and sha256 of the ``repr`` of the
    event list for the fig8-shaped self-healing scenario.
    """
    import repro.workload  # noqa: F401  (registers the serving runner)
    from repro.scenario import ScenarioSpec
    from repro.scenario.harness import Harness

    fr = FlightRecorder(sample=1.0)
    golden_lines(flight=fr)
    lines = [repr(ev) for ev in canonical_events(fr.events)]

    spec = ScenarioSpec.from_json(SELFHEAL_SPEC.read_text())
    fr = FlightRecorder(sample=1.0)
    Harness(spec, flight=fr).run()
    events = canonical_events(fr.events)
    digest = hashlib.sha256(repr(events).encode()).hexdigest()
    lines.append(f"{spec.name} events={len(events)} sha256={digest}")
    return lines


def test_hop_stream_identical_to_fixture():
    expected = FLIGHT_FIXTURE.read_text().splitlines()
    actual = golden_flight_lines()
    for i, (want, got) in enumerate(zip(expected, actual)):
        assert want == got, f"hop stream diverges at line {i}:\n-{want}\n+{got}"
    assert len(actual) == len(expected)


if __name__ == "__main__":  # fixture regeneration entry point
    lines = golden_flight_lines()
    FLIGHT_FIXTURE.write_text("\n".join(lines) + "\n")
    print(f"wrote {FLIGHT_FIXTURE} ({len(lines)} lines)")
