"""GM reliability: ACK/timeout/retransmission under injected loss."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.errors import ReproError
from repro.gm.params import GMCostModel
from repro.net import BernoulliLoss, PacketType, ScriptedLoss


def run_transfer(loss, n_messages=5, size=512, n=2, seed=3, cost=None,
                 horizon=1_000_000.0):
    cluster = Cluster(
        ClusterConfig(n_nodes=n, seed=seed, cost=cost or GMCostModel()),
        loss=loss,
    )
    received = []

    def sender():
        port = cluster.port(0)
        handles = []
        for k in range(n_messages):
            handle = yield from port.send(1, size + k)
            handles.append(handle.done)
        yield cluster.sim.all_of(handles)

    def receiver():
        port = cluster.port(1)
        for _ in range(n_messages):
            completion = yield from port.receive()
            received.append(completion)

    s = cluster.spawn(sender())
    r = cluster.spawn(receiver())
    cluster.run(until=cluster.sim.all_of([s, r]))
    return cluster, received


def test_single_data_loss_recovered():
    loss = ScriptedLoss(
        lambda p: p.header.ptype is PacketType.DATA and p.header.seq == 2
    )
    cluster, received = run_transfer(loss, n_messages=5)
    assert [c.size for c in received] == [512, 513, 514, 515, 516]
    assert cluster.node(0).gm.retransmissions >= 1


def test_ack_loss_covered_by_cumulative_ack():
    # A lost ACK is repaired for free by the cumulative ACK of the next
    # message — no retransmission needed.
    loss = ScriptedLoss(lambda p: p.header.ptype is PacketType.ACK, times=1)
    cluster, received = run_transfer(loss, n_messages=3)
    assert len(received) == 3
    assert cluster.node(0).gm.retransmissions == 0


def test_final_ack_loss_recovered_via_duplicate():
    # Losing the *last* ACK forces a timeout retransmission; the receiver
    # drops the duplicate data packet and re-acks it.
    loss = ScriptedLoss(lambda p: p.header.ptype is PacketType.ACK, times=1)
    cluster, received = run_transfer(loss, n_messages=1)
    assert len(received) == 1
    assert cluster.node(0).gm.retransmissions >= 1
    assert cluster.node(1).gm.duplicates_dropped >= 1


def test_loss_burst_recovered():
    loss = ScriptedLoss(
        lambda p: p.header.ptype is PacketType.DATA, times=4
    )
    cluster, received = run_transfer(loss, n_messages=6)
    assert len(received) == 6


def test_multipacket_message_with_middle_packet_lost():
    loss = ScriptedLoss(
        lambda p: p.header.ptype is PacketType.DATA and p.header.chunk == 2
    )
    cluster, received = run_transfer(loss, n_messages=1, size=16384)
    assert received[0].size == 16384
    # Go-back-N: the receiver drops later in-flight packets too.
    assert cluster.node(1).gm.out_of_order_dropped >= 1


def test_persistent_loss_eventually_fails_loudly():
    cost = GMCostModel(max_retransmits=3, ack_timeout=50.0)
    loss = BernoulliLoss(1.0, kinds=[PacketType.DATA])
    with pytest.raises(ReproError, match="unreachable"):
        run_transfer(loss, n_messages=1, cost=cost)


def test_moderate_random_loss_all_delivered():
    loss = BernoulliLoss(0.1)
    cluster, received = run_transfer(loss, n_messages=20, size=256)
    assert [c.size for c in received] == [256 + k for k in range(20)]


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    rate=st.floats(min_value=0.0, max_value=0.35),
    n_messages=st.integers(min_value=1, max_value=12),
    size=st.sampled_from([0, 4, 512, 4096, 9000]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_exactly_once_in_order(rate, n_messages, size, seed):
    """Any loss pattern below saturation: every message arrives exactly
    once, in order, with the right size."""
    loss = BernoulliLoss(rate)
    _cluster, received = run_transfer(
        loss, n_messages=n_messages, size=size, seed=seed
    )
    assert [c.size for c in received] == [size + k for k in range(n_messages)]
    assert [c.msg_id for c in received] == sorted(c.msg_id for c in received)


def test_loss_free_run_has_no_retransmissions():
    cluster, _ = run_transfer(None, n_messages=10)
    assert cluster.node(0).gm.retransmissions == 0
    assert cluster.node(1).gm.duplicates_dropped == 0


def test_retransmit_statistics_exposed():
    loss = ScriptedLoss(lambda p: p.header.ptype is PacketType.DATA, times=2)
    cluster, _ = run_transfer(loss, n_messages=4)
    gm = cluster.node(0).gm
    assert gm.retransmissions >= 2
