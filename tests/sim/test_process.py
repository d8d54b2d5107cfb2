"""Unit tests for the Process coroutine driver."""

import pytest

from repro.sim import Simulator


def test_process_runs_and_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(2.0)
        yield sim.timeout(3.0)
        return "result"

    p = sim.process(proc())
    assert sim.run(until=p) == "result"
    assert sim.now == 5.0


def test_process_is_alive():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)

    p = sim.process(proc())
    assert p.is_alive
    sim.run()
    assert not p.is_alive


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_process_receives_event_values():
    sim = Simulator()

    def proc():
        v = yield sim.timeout(1.0, value=41)
        return v + 1

    assert sim.run(until=sim.process(proc())) == 42


def test_yield_non_event_raises_inside_process():
    sim = Simulator()
    caught = []

    def proc():
        try:
            yield "not an event"  # type: ignore[misc]
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.run(until=sim.process(proc()))
    assert caught and "not a SimEvent" in caught[0]


def test_caught_non_event_yield_lets_the_process_carry_on():
    sim = Simulator()
    log = []

    def proc():
        try:
            yield "not an event"  # type: ignore[misc]
        except RuntimeError as exc:
            log.append((sim.now, "not a SimEvent" in str(exc)))
        yield sim.timeout(1.0)
        log.append((sim.now, "resumed"))

    p = sim.process(proc())
    sim.run()
    assert log == [(0.0, True), (1.0, "resumed")]
    assert not p.is_alive


def test_foreign_event_is_thrown_into_the_process():
    sim, other = Simulator(), Simulator()
    caught = []

    def proc():
        try:
            yield other.timeout(1.0)
        except ValueError as exc:
            caught.append((sim.now, str(exc)))
        yield sim.timeout(2.0)
        return "done"

    assert sim.run(until=sim.process(proc())) == "done"
    assert caught == [(0.0, "yielded an event from a different simulator")]
    assert sim.now == 2.0


def test_uncaught_bad_yields_fail_like_failed_events():
    sim, other = Simulator(), Simulator()

    def non_event():
        yield "not an event"  # type: ignore[misc]

    sim.process(non_event())
    with pytest.raises(
        RuntimeError,
        match="process 'non_event' yielded 'not an event', "
        "which is not a SimEvent",
    ):
        sim.run()

    def foreign():
        yield other.timeout(1.0)

    def waiter():
        with pytest.raises(ValueError, match="different simulator"):
            yield sim.process(foreign())
        return "saw it"

    assert sim.run(until=sim.process(waiter())) == "saw it"

    sim.process(foreign())
    with pytest.raises(ValueError, match="different simulator"):
        sim.run()


def test_failed_event_raises_in_process():
    sim = Simulator()
    ev = sim.event()
    sim.timeout(1.0).add_callback(lambda _e: ev.fail(KeyError("lost")))
    seen = []

    def proc():
        try:
            yield ev
        except KeyError:
            seen.append(sim.now)

    sim.run(until=sim.process(proc()))
    assert seen == [1.0]


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise ValueError("child died")

    def parent():
        with pytest.raises(ValueError, match="child died"):
            yield sim.process(child())
        return "survived"

    assert sim.run(until=sim.process(parent())) == "survived"


def test_unwaited_process_exception_surfaces():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        raise ValueError("unhandled")

    sim.process(proc())
    with pytest.raises(ValueError, match="unhandled"):
        sim.run()


def test_wait_on_another_process():
    sim = Simulator()
    order = []

    def worker():
        yield sim.timeout(5.0)
        order.append("worker")
        return 99

    def boss(w):
        v = yield w
        order.append(f"boss:{v}")

    w = sim.process(worker())
    sim.process(boss(w))
    sim.run()
    assert order == ["worker", "boss:99"]


def test_wait_on_finished_process_resumes_immediately():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)
        return "done"

    w = sim.process(worker())

    def late():
        yield sim.timeout(10.0)
        v = yield w
        return (sim.now, v)

    assert sim.run(until=sim.process(late())) == (10.0, "done")


def test_close_ends_a_waiting_process_without_triggering_it():
    sim = Simulator()
    gate = sim.event()
    log = []

    def waiting():
        try:
            yield gate
            log.append("resumed")
        finally:
            log.append("finally")

    def joiner(proc):
        log.append((yield proc))

    proc = sim.process(waiting())
    sim.process(joiner(proc))
    sim.run()
    proc.close()
    assert log == ["finally"]
    assert gate.callbacks == []  # detached from its target
    gate.succeed()
    sim.run()
    # Never resumed and never triggered: the joiner keeps waiting.
    assert log == ["finally"] and not proc.triggered
    proc.close()  # closing again does nothing
    assert log == ["finally"]


def test_close_finished_process_does_nothing():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)
        return 7

    proc = sim.process(quick())
    sim.run()
    proc.close()
    assert proc.value == 7


def test_nested_generators_with_yield_from():
    sim = Simulator()

    def inner():
        yield sim.timeout(2.0)
        return 10

    def outer():
        a = yield from inner()
        b = yield from inner()
        return a + b

    assert sim.run(until=sim.process(outer())) == 20
    assert sim.now == 4.0


def test_two_processes_interleave():
    sim = Simulator()
    log = []

    def proc(tag, period, n):
        for _ in range(n):
            yield sim.timeout(period)
            log.append((sim.now, tag))

    sim.process(proc("a", 2.0, 3))
    sim.process(proc("b", 3.0, 2))
    sim.run()
    # At t=6.0 both fire; b's timeout was scheduled first (at t=3) so the
    # deterministic (time, priority, sequence) ordering resumes b first.
    assert log == [(2.0, "a"), (3.0, "b"), (4.0, "a"), (6.0, "b"), (6.0, "a")]


def test_many_processes_scale():
    sim = Simulator()
    done = []

    def proc(i):
        yield sim.timeout(float(i % 17))
        done.append(i)

    for i in range(500):
        sim.process(proc(i))
    sim.run()
    assert len(done) == 500
