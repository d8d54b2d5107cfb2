"""Unit tests for Resource / Store primitives."""

import pytest

from repro.sim import PriorityStore, Resource, Simulator, Store
from repro.sim.resources import EMPTY


class TestResource:
    def test_immediate_grant_when_free(self):
        sim = Simulator()
        res = Resource(sim)
        req = res.request()
        assert req.triggered
        assert res.in_use == 1

    def test_fifo_granting(self):
        sim = Simulator()
        res = Resource(sim)
        order = []

        def user(tag, hold):
            yield res.hold(hold)
            order.append((sim.now, tag))

        sim.process(user("a", 5.0))
        sim.process(user("b", 3.0))
        sim.process(user("c", 1.0))
        sim.run()
        assert order == [(5.0, "a"), (8.0, "b"), (9.0, "c")]

    def test_double_release_raises(self):
        sim = Simulator()
        res = Resource(sim)
        res.request()
        res.release()
        with pytest.raises(RuntimeError):
            res.release()

    def test_cancel_pending_request(self):
        # A queued hold is cancelled by closing its waiter: it leaves the
        # count at once and is skipped when the unit comes free.
        sim = Simulator()
        res = Resource(sim)
        res.request()
        second = res.hold(1.0)

        def waiter():
            yield second

        proc = sim.process(waiter())
        sim.run()
        assert not second.triggered
        assert res.queue_length == 1
        proc.close()  # cancel before grant
        assert res.queue_length == 0
        res.release()
        assert res.in_use == 0

    def test_queue_length(self):
        sim = Simulator()
        res = Resource(sim)
        res.request()
        res.request()
        res.request()
        assert res.in_use == 1
        assert res.queue_length == 2

    def test_use_releases_on_completion(self):
        sim = Simulator()
        res = Resource(sim)

        def user():
            yield res.hold(2.0)

        sim.run(until=sim.process(user()))
        assert res.in_use == 0

    def test_negative_hold_raises(self):
        # A negative hold would end before it starts and move the clock
        # backwards.
        sim = Simulator()
        res = Resource(sim)
        with pytest.raises(ValueError, match="negative hold"):
            res.hold(-50.0)
        assert res.in_use == 0 and res.use_count == 0
        res.request()
        with pytest.raises(ValueError, match="negative hold"):
            res.hold(-0.5)
        assert res.queue_length == 0

    def test_closed_waiter_leaves_the_queue(self):
        # A process closed while its hold waits in the queue must not
        # keep its place: the holder's release would hand the unit to
        # the dead hold, and the late user would wait for nothing.
        sim = Simulator()
        res = Resource(sim)
        log = []

        def user(tag, delay, hold):
            yield sim.timeout(delay)
            yield res.hold(hold)
            log.append((tag, sim.now))

        sim.process(user("holder", 0.0, 10.0))
        waiter = sim.process(user("waiter", 0.0, 5.0))
        sim.process(user("late", 2.0, 11.0))

        def closer():
            yield sim.timeout(1.0)
            waiter.close()

        sim.process(closer())
        sim.run()
        assert log == [("holder", 10.0), ("late", 21.0)]
        assert res.in_use == 0
        assert res.queue_length == 0


    def test_closed_holder_keeps_the_unit_until_its_hold_ends(self):
        # Closing a process does not cut its hold short, whether the hold
        # started at once or after queueing: the unit comes free when the
        # hold ends, and the next waiter starts then.
        sim = Simulator()
        res = Resource(sim)
        log = []

        def user(tag, hold):
            yield res.hold(hold)
            log.append((tag, sim.now))

        first = sim.process(user("first", 4.0))
        second = sim.process(user("second", 4.0))
        sim.process(user("third", 1.0))

        def closer():
            yield sim.timeout(2.0)
            first.close()  # inside its hold, 0-4
            yield sim.timeout(4.0)
            second.close()  # inside its hold, 4-8

        sim.process(closer())
        sim.run()
        assert log == [("third", 9.0)]
        assert res.busy_time == 9.0 and res.use_count == 3
        assert res.in_use == 0

class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        store.put("x")
        got = store.get()
        assert got.triggered and got.value == "x"

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        out = []

        def consumer():
            item = yield store.get()
            out.append((sim.now, item))

        def producer():
            yield sim.timeout(4.0)
            store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert out == [(4.0, "late")]

    def test_fifo_ordering(self):
        sim = Simulator()
        store = Store(sim)
        for i in range(5):
            store.put(i)
        out = []

        def consumer():
            for _ in range(5):
                out.append((yield store.get()))

        sim.run(until=sim.process(consumer()))
        assert out == [0, 1, 2, 3, 4]

    def test_multiple_getters_fifo(self):
        sim = Simulator()
        store = Store(sim)
        out = []

        def consumer(tag):
            item = yield store.get()
            out.append((tag, item))

        sim.process(consumer("first"))
        sim.process(consumer("second"))

        def producer():
            yield sim.timeout(1.0)
            store.put("a")
            store.put("b")

        sim.process(producer())
        sim.run()
        assert out == [("first", "a"), ("second", "b")]

    def test_len_and_items(self):
        sim = Simulator()
        store = Store(sim)
        store.put(1)
        store.put(2)
        assert len(store) == 2
        assert store.items == (1, 2)


class TestPriorityStore:
    def test_lowest_priority_first(self):
        sim = Simulator()
        store = PriorityStore(sim)
        store.put_priority(5, "low")
        store.put_priority(1, "high")
        store.put_priority(3, "mid")
        out = []

        def consumer():
            for _ in range(3):
                out.append((yield store.get()))

        sim.run(until=sim.process(consumer()))
        assert out == ["high", "mid", "low"]

    def test_plain_put_is_priority_zero(self):
        sim = Simulator()
        store = PriorityStore(sim)
        store.put_priority(1, "later")
        store.put("urgent")
        out = []

        def consumer():
            for _ in range(2):
                out.append((yield store.get()))

        sim.run(until=sim.process(consumer()))
        assert out == ["urgent", "later"]

    def test_fifo_within_priority(self):
        sim = Simulator()
        store = PriorityStore(sim)
        for tag in ("a", "b", "c"):
            store.put_priority(2, tag)
        out = []

        def consumer():
            for _ in range(3):
                out.append((yield store.get()))

        sim.run(until=sim.process(consumer()))
        assert out == ["a", "b", "c"]

    def test_multiple_getters_fifo(self):
        sim = Simulator()
        store = PriorityStore(sim)
        out = []

        def consumer(tag):
            item = yield store.get()
            out.append((tag, item))

        sim.process(consumer("first"))
        sim.process(consumer("second"))

        def producer():
            yield sim.timeout(1.0)
            store.put_priority(5, "low")
            store.put_priority(1, "high")

        sim.process(producer())
        sim.run()
        # Each put goes straight to the oldest waiting getter.
        assert out == [("first", "low"), ("second", "high")]
        assert len(store) == 0 and store.items == ()
        assert store.try_get() is EMPTY

    def test_len_items_and_try_get(self):
        sim = Simulator()
        store = PriorityStore(sim)
        store.put_priority(3, "c")
        store.put("a")
        store.put_priority(3, "d")
        assert len(store) == 3
        assert store.items == ("a", "c", "d")
        assert [store.try_get() for _ in range(4)] == ["a", "c", "d", EMPTY]
