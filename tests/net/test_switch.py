"""Unit tests for the crossbar switch structure and link validation."""

import pytest

from repro.net.link import Link
from repro.net.switch import CrossbarSwitch, PortRef
from repro.sim import Simulator


class TestCrossbarSwitch:
    def test_construction(self):
        sw = CrossbarSwitch(0, radix=16, hop_latency=0.3)
        assert sw.radix == 16
        assert sw.ports_used == 0
        assert len(sw.free_ports) == 16

    def test_radix_validated(self):
        with pytest.raises(ValueError):
            CrossbarSwitch(0, radix=1, hop_latency=0.3)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            CrossbarSwitch(0, radix=4, hop_latency=-1.0)

    def test_attach_and_peer(self):
        sw = CrossbarSwitch(0, radix=4, hop_latency=0.3)
        sw.attach(2, PortRef(7, 0))
        assert sw.peer(2) == PortRef(7, 0)
        assert sw.ports_used == 1
        assert 2 not in sw.free_ports

    def test_attach_out_of_range(self):
        sw = CrossbarSwitch(0, radix=4, hop_latency=0.3)
        with pytest.raises(ValueError):
            sw.attach(4, PortRef(0, 0))

    def test_attach_twice_rejected(self):
        sw = CrossbarSwitch(0, radix=4, hop_latency=0.3)
        sw.attach(0, PortRef(1, 0))
        with pytest.raises(ValueError):
            sw.attach(0, PortRef(2, 0))

    def test_switch_to_switch_wiring(self):
        a = CrossbarSwitch(0, radix=4, hop_latency=0.3)
        b = CrossbarSwitch(1, radix=4, hop_latency=0.3)
        a.attach(0, PortRef(b, 0))
        b.attach(0, PortRef(a, 0))
        assert a.peer(0).device is b
        assert b.peer(0).device is a

    def test_peers_snapshot(self):
        sw = CrossbarSwitch(0, radix=4, hop_latency=0.3)
        sw.attach(1, PortRef(9, 0))
        peers = sw.peers()
        peers[2] = "tampered"
        assert 2 not in sw.peers()


class TestLink:
    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, bandwidth=0, latency=0.1)
        with pytest.raises(ValueError):
            Link(sim, bandwidth=100, latency=-0.1)

    def test_serialization_time(self):
        sim = Simulator()
        link = Link(sim, bandwidth=200.0, latency=0.1)

        class FakePkt:
            wire_size = 400

        assert link.serialization_time(FakePkt()) == pytest.approx(2.0)

    def test_busy_and_queue_introspection(self):
        sim = Simulator()
        link = Link(sim, bandwidth=200.0, latency=0.1, name="l")
        assert not link.busy
        claim = link.claim_head()
        assert claim.triggered
        assert link.busy
        link.claim_head()
        assert link.queue_length == 1
        sim.schedule_callback(sim.now + 5.0, link._release_cb)
        sim.run()
        assert link.busy  # second claim was granted when first released

    def test_claim_fast_inline_and_contention(self):
        sim = Simulator()
        link = Link(sim, bandwidth=200.0, latency=0.1, name="l")
        # Idle link: claimed inline, no event.
        assert link.claim_fast()
        assert link.busy
        # Busy link: fast path refuses; the slow path must be taken.
        assert not link.claim_fast()
        sim.schedule_callback(sim.now + 5.0, link._release_cb)
        sim.run()
        assert not link.busy
        # Queued waiter also blocks the fast path (FIFO fairness).
        first = link.claim_head()
        assert first.triggered
        link.claim_head()
        assert not link.claim_fast()
