"""Unit tests for the simulation engine and event primitives."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.perf import KERNEL_COUNTERS
from repro.sim import Resource, Simulator, SimEvent


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    t = sim.timeout(5.0)
    sim.run(until=t)
    assert sim.now == 5.0


def test_timeout_value_delivered():
    sim = Simulator()
    t = sim.timeout(1.0, value="payload")
    assert sim.run(until=t) == "payload"


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_run_until_time_stops_exactly():
    sim = Simulator()
    fired = []
    sim.timeout(3.0).add_callback(lambda ev: fired.append(sim.now))
    sim.timeout(10.0).add_callback(lambda ev: fired.append(sim.now))
    sim.run(until=5.0)
    assert fired == [3.0]
    assert sim.now == 5.0
    sim.run()
    assert fired == [3.0, 10.0]


def test_run_until_past_raises():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_event_succeed_once_only():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError("nope"))


def test_event_fail_requires_exception():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_untriggered_event_has_no_value():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(RuntimeError):
        _ = ev.value
    with pytest.raises(RuntimeError):
        _ = ev.ok


def test_callback_after_processed_runs_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("x")
    sim.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == ["x"]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []
    for i in range(5):
        sim.timeout(1.0, value=i).add_callback(lambda ev: order.append(ev.value))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_determinism_across_runs():
    def build_and_run():
        sim = Simulator(seed=42)
        log = []

        def proc(tag, n):
            rng = sim.rng("jitter")
            for _ in range(n):
                yield sim.timeout(rng.uniform(0, 1))
                log.append((round(sim.now, 9), tag))

        sim.process(proc("a", 20))
        sim.process(proc("b", 20))
        sim.run()
        return log

    assert build_and_run() == build_and_run()


def test_rng_streams_independent():
    sim = Simulator(seed=1)
    a1 = [sim.rng("a").random() for _ in range(5)]
    sim2 = Simulator(seed=1)
    # Draw from "b" first: must not perturb "a".
    [sim2.rng("b").random() for _ in range(100)]
    a2 = [sim2.rng("a").random() for _ in range(5)]
    assert a1 == a2


def test_rng_different_seeds_differ():
    assert Simulator(seed=1).rng("x").random() != Simulator(seed=2).rng("x").random()


def test_call_at():
    sim = Simulator()
    out = []
    sim.schedule_callback(7.5, lambda: out.append(sim.now))
    sim.run()
    assert out == [7.5]


def test_call_at_past_raises():
    sim = Simulator()
    sim.run(until=10.0)
    with pytest.raises(ValueError):
        sim.schedule_callback(5.0, lambda: None)


def test_run_until_event_from_other_source():
    sim = Simulator()
    ev = sim.event()
    sim.timeout(3.0).add_callback(lambda _e: ev.succeed("done"))
    assert sim.run(until=ev) == "done"
    assert sim.now == 3.0


def test_run_until_never_triggered_event_raises():
    sim = Simulator()
    ev = sim.event()
    sim.timeout(1.0)
    with pytest.raises(RuntimeError, match="ran out of events"):
        sim.run(until=ev)


def test_run_until_failed_event_raises_its_exception():
    sim = Simulator()
    ev = sim.event()
    sim.timeout(1.0).add_callback(lambda _e: ev.fail(KeyError("boom")))
    with pytest.raises(KeyError):
        sim.run(until=ev)


#: An infinite-horizon run on a queue holding a timeout, a live wheel
#: timer and a cancelled one; prints what fired and the clocks.
INFINITE_HORIZONS = r"""
import json, math
from repro.sim import Simulator

sim = Simulator()
fired = []
sim.timeout(5.0).add_callback(lambda _e: fired.append(sim.now))
sim.schedule_timer(300.0, lambda: fired.append(sim.now))
sim.schedule_timer(9000.0, lambda: fired.append(sim.now)).cancel()
sim.run(until=math.inf)
drained = sim.now
sim.run(until=sim.timeout(1.0))
print(json.dumps({"fired": fired, "drained": drained, "later": sim.now}))
"""


def test_infinite_horizons_drain_and_return():
    """``run(until=inf)`` drains the queue, returns, and leaves the
    clock at the last event.  Runs in a child process, so a loop that
    never exits fails the test instead of hanging it."""
    src = Path(__file__).resolve().parents[2] / "src"
    out = subprocess.run(
        [sys.executable, "-c", INFINITE_HORIZONS],
        env=dict(os.environ, PYTHONPATH=str(src)), check=True,
        capture_output=True, text=True, timeout=60,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    expected = {"fired": [5.0, 300.0], "drained": 300.0, "later": 301.0}
    assert result == expected


def test_closed_simulator_refuses_to_run():
    sim = Simulator()
    until = sim.timeout(5.0)
    sim.close()
    sim.close()  # closing twice is harmless
    for run in (
        sim.run,
        lambda: sim.run(until=10.0),
        lambda: sim.run(until=until),
    ):
        with pytest.raises(RuntimeError, match="closed simulator"):
            run()
    assert sim.now == 0.0


def test_close_drops_queued_work_and_ends_waiting_processes():
    sim = Simulator()
    res = Resource(sim)
    log = []

    def user(tag):
        try:
            yield res.hold(10.0)
            log.append(f"{tag} done")
        finally:
            log.append(f"{tag} ended")

    holder = sim.process(user("holder"))
    waiter = sim.process(user("waiter"))
    timer = sim.schedule_timer(500.0, lambda: log.append("timer"))
    sim.schedule_callback(20.0, lambda: log.append("callback"))
    sim.run(until=1.0)
    assert res.in_use == 1 and res.queue_length == 1
    sim.close()
    # Dropping the holder's hold end ended the holder; the resource
    # whose hold was dropped was closed next, which ended the waiter
    # queued on it.  Nothing ran and nothing is left queued.
    assert log == ["holder ended", "waiter ended"]
    assert not holder.triggered and not waiter.triggered
    assert timer.fn is None
    assert "queued=0" in repr(sim)


def test_kernel_counters_track_engine():
    KERNEL_COUNTERS.reset()
    sim = Simulator()
    sim.timeout(1.0)
    sim.timeout(2.0)
    sim.run()
    snap = KERNEL_COUNTERS.snapshot()
    assert snap["simulators"] >= 1
    assert snap["events"] >= 2


class TestConditions:
    def test_allof_waits_for_all(self):
        sim = Simulator()
        t1 = sim.timeout(1.0, "a")
        t2 = sim.timeout(2.0, "b")
        result = sim.run(until=sim.all_of([t1, t2]))
        assert result == {t1: "a", t2: "b"}
        assert sim.now == 2.0

    def test_empty_allof_is_immediate(self):
        sim = Simulator()
        cond = sim.all_of([])
        assert cond.triggered

    def test_condition_failure_propagates(self):
        sim = Simulator()
        good = sim.timeout(2.0)
        bad = sim.event()
        sim.timeout(1.0).add_callback(lambda _e: bad.fail(ValueError("x")))
        cond = sim.all_of([good, bad])
        with pytest.raises(ValueError):
            sim.run(until=cond)

    def test_cross_simulator_condition_rejected(self):
        sim1, sim2 = Simulator(), Simulator()
        t1, t2 = sim1.timeout(1.0), sim2.timeout(1.0)
        with pytest.raises(ValueError):
            sim1.all_of([t1, t2])
