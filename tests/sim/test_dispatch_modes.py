"""Every run mode dispatches the same schedule.

``run()``, ``run(until=t)`` and ``run(until=event)`` share the
kernel's one dispatch loop.  Stopping and resuming it at any horizon or
event must not change what runs or in which order.  Random schedules
mix timeouts, bare callbacks at both priorities, wheel timers at every
wheel level (some cancelled before their slot flushes, some after) and
same-instant ``succeed`` cascades.  Each schedule runs to quiescence
three ways, and every way must log the same ``(tag, time)`` dispatches
as a plain ``run()``.  Each stop must also leave exactly the
expected prefix of that log behind.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator

#: Delays shared by every kind of node, so that items of different
#: kinds often fall due at the same instant.
_DELAYS = (0.0, 1.0, 2.0, 64.0, 100.0, 4096.0, 5000.0)
#: Timer distances: the direct heap (< 64 µs), level 0 (< 4096 µs),
#: level 1 (< 262144 µs) and the overflow list beyond.
_TIMER_DELAYS = (1.0, 40.0, 64.0, 100.0, 4096.0, 5000.0, 262144.0, 300000.0)
_PRIORITY = st.sampled_from((0, 1))
#: When a timer's cancel runs: never, halfway (for a wheel timer, mostly
#: before its slot flushes) or 1 µs before it is due (mostly after).
_CANCEL = st.sampled_from((None, "early", "late"))


def _nodes(children):
    """Nodes ``(kind, delay, priority, cancel, children)``: when a node
    fires it logs its tag and starts each of its children."""
    return st.one_of(
        st.tuples(st.just("timeout"), st.sampled_from(_DELAYS), st.just(1),
                  st.just(None), children),
        st.tuples(st.just("callback"), st.sampled_from(_DELAYS), _PRIORITY,
                  st.just(None), children),
        st.tuples(st.just("timer"), st.sampled_from(_TIMER_DELAYS),
                  _PRIORITY, _CANCEL, children),
        st.tuples(st.just("succeed"), st.just(0.0), _PRIORITY,
                  st.just(None), children),
    )


_SCHEDULES = st.lists(
    st.recursive(
        _nodes(st.just(())),
        lambda inner: _nodes(st.lists(inner, max_size=3).map(tuple)),
        max_leaves=12,
    ),
    min_size=1,
    max_size=5,
)


class _Schedule:
    """One schedule built on a fresh simulator, logging every dispatch."""

    def __init__(self, roots):
        self.sim = Simulator()
        self.log: list[tuple[str, float]] = []
        #: Stop candidates by tag: every ``succeed`` event up front (some
        #: never trigger), each timeout once it is created.
        self.events = {}
        self._precreate(roots, "")
        for i, node in enumerate(roots):
            self._start(str(i), node)

    def _precreate(self, nodes, prefix):
        for i, (kind, _d, _p, _c, children) in enumerate(nodes):
            tag = f"{prefix}{i}"
            if kind == "succeed":
                ev = self.events[tag] = self.sim.event()
                ev.add_callback(self._firing(tag, children))
            self._precreate(children, f"{tag}.")

    def _firing(self, tag, children):
        def fire(_event=None):
            self.log.append((tag, self.sim.now))
            for i, child in enumerate(children):
                self._start(f"{tag}.{i}", child)

        return fire

    def _start(self, tag, node):
        sim = self.sim
        kind, delay, priority, cancel, children = node
        fire = self._firing(tag, children)
        if kind == "timeout":
            ev = self.events[tag] = sim.timeout(delay)
            ev.add_callback(fire)
        elif kind == "callback":
            sim.schedule_callback(sim.now + delay, fire, priority)
        elif kind == "succeed":
            self.events[tag].succeed(priority=priority)
        else:
            handle = sim.schedule_timer(sim.now + delay, fire, priority)
            if cancel is not None:
                at = delay / 2 if cancel == "early" else delay - 1.0

                def defuse():
                    self.log.append((tag + "x", sim.now))
                    handle.cancel()

                sim.schedule_callback(sim.now + at, defuse)


@settings(max_examples=300, deadline=None)
@given(roots=_SCHEDULES, data=st.data())
def test_every_run_mode_dispatches_the_same_schedule(roots, data):
    ref = _Schedule(roots)
    ref.sim.run()
    expected = ref.log
    times = sorted({t for _tag, t in expected})
    # Horizons hit event times exactly or fall between and beyond them.
    horizon_grid = sorted(set(times) | {0.5, 63.0, 4097.0, 1e6})
    horizons = sorted(
        data.draw(st.lists(st.sampled_from(horizon_grid), max_size=4))
    )

    by_time = _Schedule(roots)
    for h in horizons:
        by_time.sim.run(until=h)
        assert by_time.log == [e for e in expected if e[1] <= h], h
        assert by_time.sim.now == h
    by_time.sim.run()

    by_event = _Schedule(roots)
    position = {tag: i for i, (tag, _t) in enumerate(expected)}
    stops = data.draw(
        st.lists(st.sampled_from(sorted(set(position) | set(by_event.events))),
                 max_size=6)
    )
    for tag in stops:
        ev = by_event.events.get(tag)
        if ev is None or ev.processed:
            continue
        if tag in position:
            by_event.sim.run(until=ev)
            # Nothing ran after the stop event's own callbacks.
            assert by_event.log == expected[: position[tag] + 1], tag
        else:
            # A succeed event whose trigger was cancelled: the queue
            # drains and the run says so.
            try:
                by_event.sim.run(until=ev)
            except RuntimeError as exc:
                assert "ran out of events" in str(exc)
            else:
                raise AssertionError(f"run(until={tag}) returned")
            assert by_event.log == expected
    by_event.sim.run()

    for mode in (by_time, by_event):
        assert mode.log == expected
        assert mode.sim.events_processed == ref.sim.events_processed
