"""Pools that mint their objects on first use read as pools built whole.

A GM port's send and receive tokens and a NIC's SRAM buffers are
counts whose objects are minted when first taken.  The pools as they
were built before, with every object made up front, are kept here as
the reference: the same random operations driven into both must give
the same counters, the same exhaustion and miss points, the same
last-in, first-out reuse, and the same buffer indices.
"""

import gc
import tracemalloc
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.errors import TokenExhausted
from repro.gm.params import GMCostModel
from repro.gm.tokens import ReceiveToken, SendToken
from repro.nic.sram import BufferPool, SRAMBuffer


class EagerBufferPool:
    """Reference: the SRAM pool with all of its buffers built up front."""

    def __init__(self, sim, size, name="pool"):
        self.sim = sim
        self.size = size
        self.name = name
        self._free = [SRAMBuffer(self, i) for i in range(size)]
        self._waiters = []
        self.misses = 0
        self.max_in_use = 0

    @property
    def free(self):
        return len(self._free)

    @property
    def in_use(self):
        return self.size - len(self._free)

    def try_acquire(self):
        if not self._free:
            self.misses += 1
            return None
        buf = self._free.pop()
        buf.in_use = True
        self.max_in_use = max(self.max_in_use, self.in_use)
        return buf

    def acquire(self):
        ev = self.sim.event(name=f"{self.name}.acquire")
        if self._free and not self._waiters:
            buf = self._free.pop()
            buf.in_use = True
            self.max_in_use = max(self.max_in_use, self.in_use)
            ev.succeed(buf)
        else:
            self._waiters.append(ev)
        return ev

    def release(self, buf):
        if buf.pool is not self:
            raise ValueError("buffer belongs to a different pool")
        if not buf.in_use:
            raise RuntimeError(f"double release of {buf!r}")
        buf.in_use = False
        if self._waiters:
            waiter = self._waiters.pop(0)
            buf.in_use = True
            waiter.succeed(buf)
        else:
            self._free.append(buf)


class EagerPortTokens:
    """Reference: a GM port's token pools with every token built up front.

    Send tokens are a list of ``send_tokens_per_port`` objects; the
    cluster's set-up appends the preposted receive tokens to the same
    deque the host's reposts join.
    """

    def __init__(self, port_num, send_tokens, preposted):
        self.port_num = port_num
        self._free_send_tokens = [
            SendToken(port_num) for _ in range(send_tokens)
        ]
        self._recv_tokens = deque(
            ReceiveToken(port_num) for _ in range(preposted)
        )

    @property
    def free_send_tokens(self):
        return len(self._free_send_tokens)

    @property
    def free_recv_tokens(self):
        return len(self._recv_tokens)

    def take_send_token(self, dst, dst_port, size):
        if not self._free_send_tokens:
            raise TokenExhausted("no free send tokens")
        token = self._free_send_tokens.pop()
        token.arm(dst, dst_port, size)
        return token

    def complete_send(self, token):
        self._free_send_tokens.append(token)

    def provide_receive_buffer(self, size):
        self._recv_tokens.append(ReceiveToken(self.port_num, size=size))

    def take_recv_token(self):
        if not self._recv_tokens:
            return None
        return self._recv_tokens.popleft()


class Pairing:
    """Checks that the two sides hand out objects in the same pattern.

    Object identities differ between the sides, but a reused object must
    be matched by the reused counterpart, and a new one by a new one.
    """

    def __init__(self):
        self._ref_of = {}

    def check(self, lazy, eager):
        if id(lazy) in self._ref_of:
            assert self._ref_of[id(lazy)][1] is eager
        else:
            assert all(e is not eager for _l, e in self._ref_of.values())
            self._ref_of[id(lazy)] = (lazy, eager)


POOL_OPS = st.lists(
    st.one_of(
        st.just(("send",)),
        st.tuples(st.just("complete"), st.integers(0, 15)),
        st.tuples(st.just("repost"), st.integers(1, 9000)),
        st.just(("take_recv",)),
        st.just(("try_acquire",)),
        st.just(("acquire",)),
        st.tuples(st.just("release"), st.integers(0, 15)),
    ),
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(
    send_tokens=st.integers(1, 6),
    preposted=st.integers(0, 6),
    buffers=st.integers(1, 6),
    ops=POOL_OPS,
)
def test_lazy_pools_match_eager_reference(send_tokens, preposted, buffers, ops):
    cost = GMCostModel(send_tokens_per_port=send_tokens)
    cluster = Cluster(
        ClusterConfig(n_nodes=2, cost=cost, prepost_recv_tokens=preposted)
    )
    port = cluster.port(0)
    ref_port = EagerPortTokens(port.port_num, send_tokens, preposted)
    pool = BufferPool(cluster.sim, buffers, name="p")
    ref_pool = EagerBufferPool(cluster.sim, buffers, name="p")
    sends = []  # (lazy token, eager token) in flight
    held = []  # (lazy buffer, eager buffer) held
    waiting = []  # (lazy event, eager event) queued acquires
    tokens = Pairing()
    bufs = Pairing()

    def collect_handoffs():
        # A release hands a buffer straight to the oldest waiter.
        while waiting and waiting[0][0].triggered:
            lazy_ev, eager_ev = waiting.pop(0)
            assert eager_ev.triggered
            held.append((lazy_ev.value, eager_ev.value))
            bufs.check(lazy_ev.value, eager_ev.value)
        assert not (waiting and waiting[0][1].triggered)

    for op in ops:
        kind = op[0]
        if kind == "send":
            try:
                lazy = port.take_send_token(1, 0, 100).token
            except TokenExhausted:
                lazy = None
            try:
                eager = ref_port.take_send_token(1, 0, 100)
            except TokenExhausted:
                eager = None
            assert (lazy is None) == (eager is None)
            if lazy is not None:
                tokens.check(lazy, eager)
                sends.append((lazy, eager))
        elif kind == "complete" and sends:
            lazy, eager = sends.pop(op[1] % len(sends))
            port.complete_send(lazy)
            ref_port.complete_send(eager)
        elif kind == "repost":
            for _ev in port.provide_receive_buffer(size=op[1]):
                pass  # the host's posting time is not simulated here
            ref_port.provide_receive_buffer(op[1])
        elif kind == "take_recv":
            lazy = port.take_recv_token()
            eager = ref_port.take_recv_token()
            assert (lazy is None) == (eager is None)
            if lazy is not None:
                # Preposted tokens (size 0) first, then reposts in order.
                assert lazy.size == eager.size
                assert lazy.port_num == eager.port_num
        elif kind == "try_acquire":
            lazy = pool.try_acquire()
            eager = ref_pool.try_acquire()
            assert (lazy is None) == (eager is None)
            if lazy is not None:
                assert repr(lazy) == repr(eager)
                bufs.check(lazy, eager)
                held.append((lazy, eager))
        elif kind == "acquire":
            lazy_ev = pool.acquire()
            eager_ev = ref_pool.acquire()
            assert lazy_ev.triggered == eager_ev.triggered
            if lazy_ev.triggered:
                assert repr(lazy_ev.value) == repr(eager_ev.value)
                bufs.check(lazy_ev.value, eager_ev.value)
                held.append((lazy_ev.value, eager_ev.value))
            else:
                waiting.append((lazy_ev, eager_ev))
        elif kind == "release" and held:
            lazy, eager = held.pop(op[1] % len(held))
            lazy.release()
            eager.release()
            collect_handoffs()
        assert port.free_send_tokens == ref_port.free_send_tokens
        assert port.free_recv_tokens == ref_port.free_recv_tokens
        assert pool.free == ref_pool.free
        assert pool.in_use == ref_pool.in_use
        assert pool.max_in_use == ref_pool.max_in_use
        assert pool.misses == ref_pool.misses
        for lazy, eager in held:
            assert repr(lazy) == repr(eager)


def test_cluster_builds_no_pool_objects_up_front():
    # Per node: one GM port with 64 send and 64 preposted receive tokens,
    # and two SRAM pools of 16 buffers.  Built whole, these pools gave a
    # 256-node cluster 286 collector-tracked objects per node on Python
    # 3.11 and 3.12 (449 on 3.10, which tracks each instance's __dict__
    # as an object of its own) and 14.5 MB in all.  Minted on first use,
    # it holds 126 per node (161 on 3.10) and 6 MB.
    n = 256
    Cluster(ClusterConfig(n_nodes=4))  # finish lazy imports first
    gc.collect()
    gc.disable()
    try:
        before = gc.get_objects()
        cluster = Cluster(ClusterConfig(n_nodes=n))
        gc.collect()
        seen = {id(obj) for obj in before}
        new = [obj for obj in gc.get_objects() if id(obj) not in seen]
        del before, seen
    finally:
        gc.enable()
    assert cluster.port(0).free_send_tokens == 64
    assert cluster.port(0).free_recv_tokens == 64
    assert cluster.node(0).nic.recv_buffers.free == 16
    pooled = (SendToken, ReceiveToken, SRAMBuffer)
    assert [obj for obj in new if isinstance(obj, pooled)] == []
    assert len(new) <= 200 * n, len(new) / n
    del new
    del cluster
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cluster = Cluster(ClusterConfig(n_nodes=n))
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held <= 8_000_000, held
