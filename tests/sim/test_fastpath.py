"""Regression tests for the kernel fast-path changes.

Covers the ``schedule_callback`` priority fix, AllOf callback detachment,
trace-disabled recording, and the processed-event counter.
"""

import pytest

from repro.sim import Simulator
from repro.sim.engine import NORMAL, URGENT


def test_call_at_priority_ordered_at_same_instant():
    """URGENT beats NORMAL at the same instant, regardless of insertion."""
    sim = Simulator()
    order = []
    sim.schedule_callback(
        5.0, lambda: order.append("normal"), priority=NORMAL
    )
    sim.schedule_callback(
        5.0, lambda: order.append("urgent"), priority=URGENT
    )
    sim.run()
    assert order == ["urgent", "normal"]
    assert sim.now == 5.0


def test_call_at_priority_kwarg_not_silently_dropped():
    """The historical bug: the kwarg was accepted but always scheduled
    at NORMAL, so two same-instant callbacks ran in insertion order."""
    sim = Simulator()
    order = []
    sim.schedule_callback(1.0, lambda: order.append("first-normal"))
    sim.schedule_callback(
        1.0, lambda: order.append("late-urgent"), priority=URGENT
    )
    sim.schedule_callback(1.0, lambda: order.append("second-normal"))
    sim.run()
    assert order == ["late-urgent", "first-normal", "second-normal"]


def test_call_at_exact_absolute_time():
    sim = Simulator()
    sim.run(until=0.3)
    seen = []
    # now + (when - now) float round-trips are gone: the callback fires
    # at exactly the requested instant.
    sim.schedule_callback(0.7, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [0.7]


def test_call_at_past_still_raises():
    sim = Simulator()
    sim.run(until=10.0)
    with pytest.raises(ValueError):
        sim.schedule_callback(5.0, lambda: None)


def test_condition_detaches_on_failure():
    sim = Simulator()
    bystander = sim.event()
    failing = sim.event()
    cond = sim.all_of([failing, bystander])
    cond.add_callback(lambda ev: None)  # consume the failure
    failing.fail(RuntimeError("boom"))
    sim.run()
    assert not cond.ok
    assert bystander.callbacks == []


def test_record_is_noop_when_trace_disabled():
    sim = Simulator(trace=False)
    sim.record("nic[0]", "tx_start", uid=1)
    assert len(sim.trace) == 0
    sim.trace.enabled = True
    sim.record("nic[0]", "tx_start", uid=2)
    assert len(sim.trace) == 1


def test_events_processed_counter():
    sim = Simulator()
    assert sim.events_processed == 0
    sim.timeout(1.0)
    sim.timeout(2.0)
    sim.run()
    assert sim.events_processed == 2
