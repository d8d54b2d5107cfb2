"""Unit tests for SRAM buffer pools."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.nic.sram import BufferPool
from repro.sim import Simulator


def test_pool_starts_full():
    sim = Simulator()
    pool = BufferPool(sim, 4)
    assert pool.free == 4
    assert pool.in_use == 0


def test_size_validated():
    with pytest.raises(ValueError):
        BufferPool(Simulator(), 0)


def test_try_acquire_and_release():
    sim = Simulator()
    pool = BufferPool(sim, 2)
    a = pool.try_acquire()
    b = pool.try_acquire()
    assert a is not None and b is not None
    assert pool.try_acquire() is None
    assert pool.misses == 1
    a.release()
    assert pool.free == 1


def test_double_release_raises():
    sim = Simulator()
    pool = BufferPool(sim, 1)
    buf = pool.try_acquire()
    buf.release()
    with pytest.raises(RuntimeError):
        buf.release()


def test_cross_pool_release_rejected():
    sim = Simulator()
    p1, p2 = BufferPool(sim, 1), BufferPool(sim, 1)
    buf = p1.try_acquire()
    with pytest.raises(ValueError):
        p2.release(buf)


def test_blocking_acquire_fifo():
    sim = Simulator()
    pool = BufferPool(sim, 1)
    held = pool.try_acquire()
    order = []

    def waiter(tag):
        buf = yield pool.acquire()
        order.append(tag)
        yield sim.timeout(1.0)
        buf.release()

    sim.process(waiter("first"))
    sim.process(waiter("second"))
    sim.schedule_callback(5.0, held.release)
    sim.run()
    assert order == ["first", "second"]


def test_blocking_acquire_immediate_when_free():
    sim = Simulator()
    pool = BufferPool(sim, 2)
    ev = pool.acquire()
    assert ev.triggered


def test_waiters_do_not_jump_queue_via_try_acquire():
    # While waiters are queued, try_acquire on an exhausted pool fails.
    sim = Simulator()
    pool = BufferPool(sim, 1)
    pool.try_acquire()
    pool.acquire()  # queued waiter
    assert pool.try_acquire() is None


def test_release_hands_directly_to_waiter():
    sim = Simulator()
    pool = BufferPool(sim, 1)
    buf = pool.try_acquire()
    got = []
    pool.acquire().add_callback(lambda ev: got.append(ev.value))
    buf.release()
    sim.run()
    assert len(got) == 1
    assert pool.free == 0  # handed over, not returned to the free list


def test_high_water_mark():
    sim = Simulator()
    pool = BufferPool(sim, 3)
    a = pool.try_acquire()
    b = pool.try_acquire()
    a.release()
    b.release()
    assert pool.max_in_use == 2


@given(ops=st.lists(st.booleans(), min_size=1, max_size=60))
def test_property_free_plus_in_use_is_constant(ops):
    sim = Simulator()
    pool = BufferPool(sim, 5)
    held = []
    for acquire in ops:
        if acquire:
            buf = pool.try_acquire()
            if buf is not None:
                held.append(buf)
        elif held:
            held.pop().release()
        assert pool.free + pool.in_use == 5
        assert pool.in_use == len(held)
