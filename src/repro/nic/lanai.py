"""The NIC core: processor, engines, queues, and dispatch.

Mirrors the structure of a GM Myrinet Control Program:

* a **host command loop** draining send events the host posted;
* a **receive loop** draining packets latched off the wire;
* a **transmit loop** feeding the wire, firing each packet descriptor's
  callback when the transmit DMA engine finishes;
* a single slow **processor** (capacity-1 resource) that every protocol
  action must hold, and a **PCI bus** (capacity-1 resource) that every
  host-memory DMA must hold.

Protocol logic (GM unicast, the paper's multicast, the baseline schemes)
registers *handlers*; the NIC core stays protocol-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.net.packet import Packet, PacketType
from repro.nic.descriptor import PacketDescriptor
from repro.nic.sram import BufferPool
from repro.sim.events import PENDING, SimEvent
from repro.sim.resources import EMPTY, PriorityStore, Resource, Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gm.params import GMCostModel
    from repro.net.fabric import Network
    from repro.sim.engine import Simulator

__all__ = ["NIC", "HostCommand"]

#: Transmit-queue priorities: ACKs jump ahead of data so round trips stay
#: short even when the data queue is deep.
TX_PRIO_ACK = 0
TX_PRIO_DATA = 1
TX_PRIO_RETRANSMIT = 1  # retransmissions ride with data, FIFO


@dataclass
class HostCommand:
    """Base class for host-to-NIC commands (send events, group updates)."""

    port: int = 0
    context: dict[str, Any] = field(default_factory=dict)


class NIC:
    """One simulated LANai-class network interface card."""

    def __init__(
        self,
        sim: "Simulator",
        nic_id: int,
        cost: "GMCostModel",
        network: "Network",
    ):
        self.sim = sim
        self.id = nic_id
        self.cost = cost
        self.network = network
        self.name = f"nic[{nic_id}]"

        #: The LANai processor — all protocol processing serializes here.
        self.cpu = Resource(sim, name=f"{self.name}.cpu")
        #: The PCI bus shared by host-DMA in both directions.
        self.pci = Resource(sim, name=f"{self.name}.pci")
        #: The LANai's SRAM copy engine (separate from the processor):
        #: staging copies pipeline with protocol processing and the wire,
        #: so multi-packet forwarding streams while a single-packet
        #: message eats the full copy latency.
        self.copy_engine = Resource(sim, name=f"{self.name}.copy")

        self.host_queue: Store = Store(sim, name=f"{self.name}.hostq")
        self.rx_queue: Store = Store(sim, name=f"{self.name}.rxq")
        self.tx_queue: PriorityStore = PriorityStore(sim, name=f"{self.name}.txq")

        self.send_buffers = BufferPool(
            sim, cost.nic_send_buffers, name=f"{self.name}.sendbuf"
        )
        self.recv_buffers = BufferPool(
            sim, cost.nic_recv_buffers, name=f"{self.name}.recvbuf"
        )

        #: ptype -> generator-returning handler(packet, buffer)
        self.packet_handlers: dict[
            PacketType, Callable[[Packet, Any], Generator]
        ] = {}
        #: command type -> generator-returning handler(command)
        self.command_handlers: dict[type, Callable[[Any], Generator]] = {}

        # statistics
        self.packets_sent = 0
        self.packets_received = 0
        self.rx_overruns = 0

        network.attach(nic_id, self._on_wire_packet)
        #: The engine loops, kept so :meth:`close` can end them.
        self._loops = (
            sim.process(self._command_loop(), name=f"{self.name}.cmd"),
            sim.process(self._rx_loop(), name=f"{self.name}.rx"),
            sim.process(self._tx_loop(), name=f"{self.name}.tx"),
        )

    def close(self) -> None:
        """Teardown: end the loops and drop what refers back here (queued
        work and handlers bound to this NIC's engines, freed buffers)."""
        for loop in self._loops:
            loop.close()
        self.host_queue = self.rx_queue = self.tx_queue = None
        self.packet_handlers.clear()
        self.command_handlers.clear()
        self.send_buffers.close()
        self.recv_buffers.close()

    # -- host side ---------------------------------------------------------
    def post_command(self, command: HostCommand) -> None:
        """Called by the host (which has already paid its PIO cost)."""
        self.host_queue.put(command)

    # -- wire side ---------------------------------------------------------
    def _on_wire_packet(self, packet: Packet) -> None:
        """Latch an arriving packet into SRAM, or drop it on overrun.

        ACKs are header-only and are absorbed into scratch space without
        consuming a receive buffer (as in GM, where small control packets
        are handled inline by the MCP).
        """
        if packet.header.ptype.is_data:
            buf = self.recv_buffers.try_acquire()
            m = self.sim.metrics
            if buf is None:
                self.rx_overruns += 1
                if m is not None:
                    m.inc("nic.rx_overruns")
                self.sim.record(
                    self.name,
                    "rx_overrun",
                    uid=packet.uid,
                    src=packet.src,
                    seq=packet.header.seq,
                )
                return
            if m is not None:
                m.set_gauge("nic.recv_buffers_in_use", self.recv_buffers.in_use)
            fr = self.sim.flight
            if fr is not None:
                fr.gauge(self.sim.now, self.id, "nic.recv_buffers_in_use",
                         self.recv_buffers.in_use)
            self.rx_queue.put((packet, buf))
        else:
            self.rx_queue.put((packet, None))

    # -- engine loops --------------------------------------------------------
    def _command_loop(self) -> Generator:
        host_queue = self.host_queue
        while True:
            command = host_queue.try_get()
            if command is EMPTY:
                command = yield host_queue.get()
            handler = self.command_handlers.get(type(command))
            if handler is None:
                raise LookupError(
                    f"{self.name}: no handler for {type(command).__name__}"
                )
            # Fetch/decode the host event — paid once per host request.
            yield self.processing(self.cost.nic_command_fetch)
            yield from handler(command)

    def _rx_loop(self) -> Generator:
        # Deliberately NOT a try_get drain: a backlogged receive path must
        # keep yielding between packets so same-instant deliveries, ACK
        # timers, and LANai grants interleave in arrival order.  Draining
        # synchronously here reorders ties and shifts multicast latencies.
        sim = self.sim
        rx_queue = self.rx_queue
        get = rx_queue.get
        handlers = self.packet_handlers
        while True:
            packet, buf = yield get()
            self.packets_received += 1
            m = sim.metrics
            if m is not None:
                m.inc("nic.packets_received")
            handler = handlers.get(packet.header.ptype)
            if handler is None:
                if buf is not None:
                    buf.release()
                sim.record(
                    self.name,
                    "rx_unhandled",
                    ptype=packet.header.ptype.value,
                    uid=packet.uid,
                )
                continue
            yield from handler(packet, buf)

    def _tx_loop(self) -> Generator:
        sim = self.sim
        trace = sim.trace
        tx_queue = self.tx_queue
        try_get = tx_queue.try_get
        inject = self.network.inject
        nic_id = self.id
        while True:
            desc = try_get()
            if desc is EMPTY:
                desc = yield tx_queue.get()
            pkt = desc.packet
            if pkt.src != nic_id:
                raise RuntimeError(
                    f"{self.name} asked to transmit {pkt.describe()} "
                    f"with src {pkt.src}"
                )
            if trace.enabled:
                sim.record(
                    self.name, "tx_start", uid=pkt.uid, dst=pkt.dst,
                    seq=pkt.header.seq, ptype=pkt.header.ptype.value,
                )
            tx_started = sim._now
            # One completion event per transmitted packet: allocate via
            # __new__ (sim.event() + SimEvent.__init__ showed up in
            # serving-rate profiles).
            injected = SimEvent.__new__(SimEvent)
            injected.sim = sim
            injected.callbacks = []
            injected._value = PENDING
            injected._ok = None
            injected.name = None
            inject(pkt, on_injected=injected.succeed)
            yield injected  # transmit DMA engine drains the buffer
            self.packets_sent += 1
            m = sim.metrics
            if m is not None:
                m.inc("nic.packets_sent")
                m.observe("nic.tx_service_us", sim._now - tx_started)
                m.set_gauge(
                    "nic.send_buffers_in_use", self.send_buffers.in_use
                )
            fr = sim.flight
            if fr is not None:
                fr.gauge(sim._now, nic_id, "nic.send_buffers_in_use",
                         self.send_buffers.in_use)
            if trace.enabled:
                sim.record(
                    self.name, "tx_done", uid=pkt.uid, dst=pkt.dst,
                    seq=pkt.header.seq, ptype=pkt.header.ptype.value,
                )
            self._complete(desc)

    def _complete(self, desc: PacketDescriptor) -> None:
        """Fire the descriptor callback (in the background, so the next
        queued packet can start transmitting meanwhile, as the real send
        DMA engine would)."""
        callback = desc.on_transmit
        if callback is None:
            if desc.buffer is not None:
                desc.buffer.release()
            return
        result = callback(desc)
        if result is not None:
            # Anonymous: an f-string name per replica chain showed up in
            # serving-rate profiles (Process falls back to the generator's
            # __name__ for error messages).
            self.sim.process(result)

    # -- building blocks for protocol handlers --------------------------------
    def dma(self, nbytes: int) -> SimEvent:
        """One host→NIC DMA transaction (PCI read) on the shared bus."""
        return self.pci.hold(self.cost.dma_time(nbytes))

    def dma_write(self, nbytes: int) -> SimEvent:
        """One NIC→host DMA transaction (PCI write) on the shared bus."""
        return self.pci.hold(self.cost.dma_write_time(nbytes))

    def processing(self, cost: float) -> SimEvent:
        """Hold the LANai processor for *cost* µs."""
        return self.cpu.hold(cost)

    def sram_copy(self, nbytes: int) -> SimEvent:
        """Stage *nbytes* through SRAM on the copy engine."""
        return self.copy_engine.hold(nbytes / self.cost.nic_sram_copy_bandwidth)

    def queue_tx(self, desc: PacketDescriptor, priority: int = TX_PRIO_DATA) -> None:
        self.tx_queue.put_priority(priority, desc)

    def __repr__(self) -> str:
        return f"<NIC {self.id}>"
