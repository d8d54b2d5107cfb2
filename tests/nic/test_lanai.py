"""Unit tests for the NIC core: engines, dispatch, descriptors, DMA."""

import pytest

from repro.gm.params import GMCostModel
from repro.net import Network, Packet, PacketHeader, PacketType, single_switch
from repro.nic import NIC, HostCommand, PacketDescriptor
from repro.sim import Simulator


def make_nics(n=2, cost=None):
    sim = Simulator()
    cost = cost or GMCostModel()
    topo = single_switch(
        sim, n, cost.wire_bandwidth, cost.link_latency, cost.switch_hop_latency
    )
    net = Network(sim, topo)
    nics = [NIC(sim, i, cost, net) for i in range(n)]
    return sim, nics


def data_packet(src, dst, payload=64, ptype=PacketType.DATA, seq=1):
    return Packet(
        header=PacketHeader(
            ptype=ptype, src=src, dst=dst, origin=src, payload=payload, seq=seq
        )
    )


class TestDispatch:
    def test_unknown_command_raises(self):
        sim, (nic, _) = make_nics()
        nic.post_command(HostCommand())
        with pytest.raises(LookupError):
            sim.run()

    def test_command_fetch_cost_charged(self):
        sim, (nic, _) = make_nics()
        times = []

        def handler(cmd):
            times.append(sim.now)
            return
            yield  # pragma: no cover

        nic.command_handlers[HostCommand] = handler
        nic.post_command(HostCommand())
        sim.run()
        assert times == [pytest.approx(nic.cost.nic_command_fetch)]

    def test_unhandled_packet_releases_buffer(self):
        sim, (a, b) = make_nics()
        # No handler registered for DATA on b.
        a.queue_tx(PacketDescriptor(data_packet(0, 1)))
        sim.run()
        assert b.recv_buffers.free == b.recv_buffers.size
        assert b.packets_received == 1

    def test_wrong_source_transmission_rejected(self):
        sim, (a, _) = make_nics()
        a.queue_tx(PacketDescriptor(data_packet(1, 0)))  # src != a.id
        with pytest.raises(RuntimeError, match="asked to transmit"):
            sim.run()


class TestReceivePath:
    def test_data_consumes_recv_buffer_acks_do_not(self):
        sim, (a, b) = make_nics()
        seen = []

        def handler(pkt, buf):
            seen.append((pkt.header.ptype, buf))
            if buf is not None:
                buf.release()
            return
            yield  # pragma: no cover

        b.packet_handlers[PacketType.DATA] = handler
        b.packet_handlers[PacketType.ACK] = handler
        a.queue_tx(PacketDescriptor(data_packet(0, 1)))
        a.queue_tx(
            PacketDescriptor(data_packet(0, 1, payload=0, ptype=PacketType.ACK))
        )
        sim.run()
        kinds = [k for k, _ in seen]
        assert PacketType.DATA in kinds and PacketType.ACK in kinds
        data_buf = next(buf for k, buf in seen if k is PacketType.DATA)
        ack_buf = next(buf for k, buf in seen if k is PacketType.ACK)
        assert data_buf is not None
        assert ack_buf is None

    def test_rx_overrun_drops_packet(self):
        cost = GMCostModel(nic_recv_buffers=1)
        sim, (a, b) = make_nics(cost=cost)

        def slow_handler(pkt, buf):
            yield sim.timeout(1000.0)
            buf.release()

        b.packet_handlers[PacketType.DATA] = slow_handler
        for seq in range(3):
            a.queue_tx(PacketDescriptor(data_packet(0, 1, seq=seq)))
        sim.run()
        assert b.rx_overruns >= 1


class TestDescriptors:
    def test_default_completion_frees_buffer(self):
        sim, (a, b) = make_nics()
        buf = a.send_buffers.try_acquire()
        a.queue_tx(PacketDescriptor(data_packet(0, 1), buffer=buf))
        sim.run()
        assert a.send_buffers.free == a.send_buffers.size

    def test_callback_runs_after_transmit(self):
        sim, (a, b) = make_nics()
        fired = []

        def cb(desc):
            fired.append(sim.now)
            return None

        a.queue_tx(PacketDescriptor(data_packet(0, 1), on_transmit=cb))
        sim.run()
        assert len(fired) == 1
        assert fired[0] > 0

    def test_generator_callback_can_requeue(self):
        # The GM-2 mechanism: rewrite the header, send the same bytes
        # again.
        sim, nics = make_nics(3)
        a = nics[0]
        received = []
        for nic in nics[1:]:
            def handler(pkt, buf, _nic=nic):
                received.append((_nic.id, pkt.dst))
                if buf is not None:
                    buf.release()
                return
                yield  # pragma: no cover

            nic.packet_handlers[PacketType.DATA] = handler

        def replicate(desc):
            if not desc.context["remaining"]:
                if desc.buffer is not None:
                    desc.buffer.release()
                return None

            def work():
                yield a.processing(a.cost.nic_header_rewrite)
                nxt = desc.context["remaining"].pop(0)
                desc.retarget(dst=nxt)
                a.queue_tx(desc)

            return work()

        buf = a.send_buffers.try_acquire()
        desc = PacketDescriptor(
            data_packet(0, 1), buffer=buf,
            on_transmit=replicate, context={"remaining": [2]},
        )
        a.queue_tx(desc)
        sim.run()
        assert sorted(received) == [(1, 1), (2, 2)]
        assert a.send_buffers.free == a.send_buffers.size

    def test_retarget_preserves_other_fields(self):
        desc = PacketDescriptor(data_packet(0, 1, seq=9))
        old_uid = desc.packet.uid
        desc.retarget(dst=5)
        assert desc.packet.dst == 5
        assert desc.packet.header.seq == 9
        assert desc.packet.uid != old_uid


class TestDMA:
    def test_pci_shared_between_directions(self):
        sim, (nic, _) = make_nics()
        done = []

        def reader():
            yield nic.dma(2100)  # 10us at 210 B/us + startup
            done.append(("read", sim.now))

        def writer():
            yield nic.dma_write(1550)  # 10us at 155 B/us + startup
            done.append(("write", sim.now))

        sim.process(reader())
        sim.process(writer())
        sim.run()
        # Serialized on one bus: second finishes after both durations.
        assert done[1][1] == pytest.approx(
            nic.cost.dma_time(2100) + nic.cost.dma_write_time(1550)
        )

    def test_write_slower_than_read(self):
        cost = GMCostModel()
        assert cost.dma_write_time(4096) > cost.dma_time(4096)

    def test_sram_copy_engine_independent_of_cpu(self):
        sim, (nic, _) = make_nics()
        done = {}

        def cpu_user():
            yield nic.processing(10.0)
            done["cpu"] = sim.now

        def copier():
            yield nic.sram_copy(1900)  # 10us at 190 B/us
            done["copy"] = sim.now

        sim.process(cpu_user())
        sim.process(copier())
        sim.run()
        # Parallel engines: both finish at ~10us, not 20.
        assert done["cpu"] == pytest.approx(10.0)
        assert done["copy"] == pytest.approx(10.0)
