"""``Resource.hold`` against the resource it replaced: the same schedule.

Random programs over 1-3 resources and 2-6 processes run on two
resources: ``repro.sim.Resource``, where a hold is ``yield
res.hold(d)``, and the resource kept in ``tests/sim/reference_resource.py``,
where a hold is the old fork between ``use_fast`` and ``use()``.  A step
is a sleep, a hold, a link-style claim (granted, then released by a
bare callback *d* later, as the fabric releases a link), or closing
another process while it sleeps or waits in a queue.  Durations come
from a set of four so that ties are common.  Some programs stop at a
horizon and close the simulator.

Both runs must log the same ``(time, tag)`` lines and end with the same
event count, kernel counters and per-resource ``busy_time`` (compared
with ``==``), ``use_count``, ``in_use`` and ``queue_length``.

Closing differs on purpose in one way.  The old close ended the process
of every dropped hold but left the processes queued behind a hold that
took the fast path suspended in the queue; only a hold taken through
``use()`` passed the unit down the queue from its ``finally``.  The new
close ends every process queued behind a dropped hold.  So the new run
must end exactly what the reference ended plus the processes that were
queued behind a hold when the simulator closed.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.perf import KERNEL_COUNTERS
from repro.sim import Resource, Simulator
from tests.sim import reference_resource

DURATIONS = (0.0, 0.5, 1.0, 2.5)


def _new_hold(res, duration):
    yield res.hold(duration)


def _reference_hold(res, duration):
    ev = res.use_fast(duration)
    if ev is None:
        yield from res.use(duration)
    else:
        yield ev


def _new_claim(sim, res, duration):
    yield res.request()
    sim.schedule_callback(sim.now + duration, res.release)


def _reference_claim(sim, res, duration):
    req = res.request()
    yield req
    sim.schedule_callback(sim.now + duration, res._release_unit)


NEW = (Resource, _new_hold, _new_claim)
REFERENCE = (reference_resource.Resource, _reference_hold, _reference_claim)


def run_program(side, n_res, programs, horizon):
    """Run *programs* (one step list per process) on *side*; return what
    must match, the processes the close ended, and the processes queued
    behind a hold when it closed."""
    resource_cls, hold, claim = side
    KERNEL_COUNTERS.reset()
    sim = Simulator()
    resources = [resource_cls(sim) for _ in range(n_res)]
    log: list[tuple[float, str]] = []
    #: Per process: what it waits on — ("sleep",), ("hold", r) or
    #: ("claim", r) — or None while it runs or once it is done.
    phase: dict[int, tuple | None] = {}
    procs = []

    def closable(j):
        proc = procs[j]
        if proc.triggered or proc._target is None or phase[j] is None:
            return False
        # A sleeper, or a hold or claim still queued (not yet granted).
        return phase[j][0] == "sleep" or not proc._target.triggered

    def body(i, steps):
        try:
            for step in steps:
                kind = step[0]
                if kind == "sleep":
                    phase[i] = ("sleep",)
                    yield sim.timeout(step[1])
                elif kind == "hold":
                    phase[i] = ("hold", step[1])
                    yield from hold(resources[step[1]], step[2])
                elif kind == "claim":
                    phase[i] = ("claim", step[1])
                    yield from claim(sim, resources[step[1]], step[2])
                else:
                    j = step[1]
                    if j != i and j < len(procs) and closable(j):
                        procs[j].close()
                        kind = f"close {j}"
                    else:
                        kind = f"spare {j}"
                phase[i] = None
                log.append((sim.now, f"{i} {kind}"))
            log.append((sim.now, f"{i} done"))
        except GeneratorExit:
            log.append((sim.now, f"{i} ended"))
            raise

    for i, steps in enumerate(programs):
        phase[i] = None
        procs.append(sim.process(body(i, steps)))
    sim.run(until=horizon)
    outcome = {
        "log": list(log),
        "events": sim.events_processed,
        "counters": KERNEL_COUNTERS.snapshot(),
        "resources": [
            (r.busy_time, r.use_count, r.in_use, r.queue_length)
            for r in resources
        ],
    }
    if horizon is None:
        return outcome, set(), set()
    waiting = {
        i: phase[i] for i, proc in enumerate(procs)
        if not proc.triggered and proc._target is not None
        and phase[i] is not None
    }
    held_by_hold = {
        ph[1] for i, ph in waiting.items()
        if ph[0] == "hold" and procs[i]._target.triggered
    }
    queued_behind_hold = {
        i for i, ph in waiting.items()
        if ph[0] != "sleep" and ph[1] in held_by_hold
        and not procs[i]._target.triggered
    }
    before = len(log)
    sim.close()
    ended = {tag for _when, tag in log[before:]}
    return outcome, ended, {f"{i} ended" for i in queued_behind_hold}


def steps(n_res, n_proc):
    duration = st.sampled_from(DURATIONS)
    res = st.integers(0, n_res - 1)
    step = st.one_of(
        st.tuples(st.just("sleep"), duration),
        st.tuples(st.just("hold"), res, duration),
        st.tuples(st.just("hold"), res, duration),
        st.tuples(st.just("claim"), res, duration),
        st.tuples(st.just("close"), st.integers(0, n_proc - 1)),
    )
    return st.lists(step, min_size=1, max_size=6)


@st.composite
def programs(draw):
    n_res = draw(st.integers(1, 3))
    n_proc = draw(st.integers(2, 6))
    procs = draw(st.lists(steps(n_res, n_proc), min_size=n_proc,
                          max_size=n_proc))
    horizon = draw(st.none() | st.sampled_from((0.0, 0.5, 1.0, 2.5, 4.0)))
    return n_res, procs, horizon


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs())
def test_hold_keeps_the_reference_schedule(program):
    n_res, procs, horizon = program
    want, ended_ref, behind_ref = run_program(REFERENCE, n_res, procs, horizon)
    got, ended_new, behind_new = run_program(NEW, n_res, procs, horizon)
    assert got == want
    assert behind_new == behind_ref
    assert ended_new == ended_ref | behind_ref


def test_close_ends_what_waits_behind_a_fast_hold():
    # The old close leaves the queued process suspended; the new one
    # ends it after the holder.
    program = [[("hold", 0, 2.5)], [("hold", 0, 1.0)]]
    _, ended_ref, behind = run_program(REFERENCE, 1, program, 1.0)
    _, ended_new, _ = run_program(NEW, 1, program, 1.0)
    assert ended_ref == {"0 ended"}
    assert behind == {"1 ended"}
    assert ended_new == {"0 ended", "1 ended"}
