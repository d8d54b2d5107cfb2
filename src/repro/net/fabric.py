"""The network fabric: moves packets between attached NICs.

``Network.inject(packet)`` starts a cut-through traversal along the
source route: the packet head claims each link in order (FIFO contention),
pays the hop latency, and leaves the link occupied for the serialization
time behind it; the destination receives the packet one serialization time
after the head arrives.  Loss injection happens at delivery (a corrupted
packet is one the receiving NIC's CRC check throws away).
"""

from __future__ import annotations

from heapq import heappush as _heappush
from typing import TYPE_CHECKING, Callable

from repro.errors import RoutingError
from repro.net.fault import LossModel, NoLoss
from repro.net.packet import Packet
from repro.net.topology import Topology
from repro.sim.engine import _Callback

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["Network"]


class _Traversal:
    """One packet's cut-through walk, driven as a callback chain.

    The walk used to be a generator run as a :class:`Process`; at tens of
    thousands of packets per run the process boot/finish events and the
    generator resume machinery were a measurable slice of the kernel's
    serving-rate budget.  The chain keeps the *exact* event schedule of
    the generator version — the kick-off is an URGENT callback scheduled
    where the process boot event used to sit, and each hop arrival is a
    callback cell at precisely the ``(when, priority, seq)`` the hop's
    ``Timeout`` would have occupied — while paying one bare function call
    per event instead of a generator resume (and no finish event at all).

    Each callback is bound when it is scheduled and is never cached on
    the walk: a bound method kept on its own object is a reference cycle
    that only the cyclic garbage collector can free.  So the heap cell
    that runs the walk's last event holds its last reference, and
    reference counting frees the walk, its packet and the packet's
    header as soon as that event has run.
    """

    __slots__ = (
        "net", "sim", "packet", "links", "ser", "on_injected", "hop",
        "_blocked_at",
    )

    def __init__(
        self,
        net: "Network",
        packet: Packet,
        links: list,
        on_injected: Callable[[Packet], None] | None,
    ):
        self.net = net
        self.sim = net.sim
        self.packet = packet
        self.links = links
        self.ser = packet.wire_size * net._inv_bandwidth
        self.on_injected = on_injected
        self.hop = 0
        self._blocked_at = 0.0

    def _claim(self) -> None:
        # Uncontended links (the dominant case in every sweep) are
        # claimed inline, with no claim event; only a busy channel
        # parks the walk on a claim event.
        link = self.links[self.hop]
        if not link.up:
            # The cable (or an attached switch) died after this packet's
            # route was stamped: cut-through flits hit the dead port and
            # are discarded by the fabric, exactly like a Myrinet drain.
            self._drop_dead(link)
            return
        if link.claim_fast():
            self._cross(link)
        else:
            self._blocked_at = self.sim._now
            link.claim_head().callbacks.append(self._granted)

    def _granted(self, _ev) -> None:
        sim = self.sim
        m = sim.metrics
        if m is not None:
            m.observe("net.queue_wait_us", sim._now - self._blocked_at)
        fr = sim.flight
        if fr is not None:
            packet = self.packet
            tid = packet.header.trace_id
            if tid >= 0:
                fr.record(
                    sim._now, tid, "queue", packet.header.src, packet.uid,
                    packet.header.chunk,
                    {"wait": sim._now - self._blocked_at},
                )
        self._cross(self.links[self.hop])

    def _injected(self) -> None:
        self.on_injected(self.packet)

    def _drop_dead(self, link) -> None:
        net = self.net
        sim = self.sim
        packet = self.packet
        net.failure_dropped += 1
        m = sim.metrics
        if m is not None:
            m.inc("net.failure_drops")
        if sim.trace.enabled:
            sim.record(
                "network",
                "pkt_failure_drop",
                uid=packet.uid,
                src=packet.src,
                dst=packet.dst,
                seq=packet.header.seq,
                ptype=packet.header.ptype.value,
                link=link.name,
            )
        fr = sim.flight
        if fr is not None and packet.header.trace_id >= 0:
            fr.record(
                sim._now, packet.header.trace_id, "failure_drop",
                packet.dst, packet.uid, packet.header.chunk,
                {"link": link.name},
            )
        if self.hop == 0 and self.on_injected is not None:
            # The transmit DMA still serializes the frame into the dead
            # cable; the descriptor callback must fire at tail-out or
            # the NIC's transmit engine would wait on it forever.
            sim.schedule_callback(sim._now + self.ser, self._injected)

    def _cross(self, link) -> None:
        sim = self.sim
        ser = self.ser
        ws = self.packet.wire_size
        link.bytes_carried += ws
        link.packets_carried += 1
        m = sim.metrics
        if m is not None:
            m.inc("net.link_bytes", ws)
        # The channel is occupied for the serialization time (the tail
        # streams behind the head); propagation pipelines, so release
        # is scheduled now and the head crosses concurrently.  The
        # timers below inline ``schedule_callback`` — at several calls
        # per packet-hop the wrapper frames were a measurable slice of
        # the serving-rate budget.  Push order (release, injected, hop)
        # keeps the exact seq order the wrapped calls produced.
        now = sim._now
        heap = sim._heap
        freelist = sim._cb_freelist
        sseq = sim._seq
        if freelist:
            cell = freelist.pop()
            cell.fn = link._release_cb
        else:
            cell = _Callback(link._release_cb)
        _heappush(heap, (now + ser, 1, next(sseq), cell))
        if self.hop == 0 and self.on_injected is not None:
            if freelist:
                cell = freelist.pop()
                cell.fn = self._injected
            else:
                cell = _Callback(self._injected)
            _heappush(heap, (now + ser, 1, next(sseq), cell))
        self.hop += 1
        if self.hop < len(self.links):
            fn = self._claim
        else:
            fn = self._tail
        when = now + link.latency
        if when > now:
            if freelist:
                cell = freelist.pop()
                cell.fn = fn
            else:
                cell = _Callback(fn)
            _heappush(heap, (when, 1, next(sseq), cell))
        else:
            # Zero-latency hop: same-instant NORMAL order must match
            # what schedule_callback would have produced (now-queue).
            sim.schedule_callback(when, fn)

    def _tail(self) -> None:
        # The destination has the full packet one serialization after the
        # head arrives.
        sim = self.sim
        freelist = sim._cb_freelist
        if freelist:
            cell = freelist.pop()
            cell.fn = self._deliver
        else:
            cell = _Callback(self._deliver)
        _heappush(sim._heap, (sim._now + self.ser, 1, next(sim._seq), cell))

    def _deliver(self) -> None:
        net = self.net
        sim = self.sim
        packet = self.packet
        m = sim.metrics
        if net.loss.should_drop(packet, sim._now):
            net.dropped += 1
            if m is not None:
                m.inc("net.fault_drops")
            if sim.trace.enabled:
                sim.record(
                    "network",
                    "pkt_drop",
                    uid=packet.uid,
                    src=packet.src,
                    dst=packet.dst,
                    seq=packet.header.seq,
                    ptype=packet.header.ptype.value,
                )
            fr = sim.flight
            if fr is not None and packet.header.trace_id >= 0:
                fr.record(
                    sim._now, packet.header.trace_id, "drop",
                    packet.dst, packet.uid, packet.header.chunk,
                )
            return
        net.delivered += 1
        if m is not None:
            m.inc("net.packets_delivered")
        if sim.trace.enabled:
            sim.record(
                "network",
                "pkt_deliver",
                uid=packet.uid,
                src=packet.src,
                dst=packet.dst,
                seq=packet.header.seq,
                ptype=packet.header.ptype.value,
            )
        fr = sim.flight
        if fr is not None and packet.header.trace_id >= 0:
            fr.record(
                sim._now, packet.header.trace_id, "deliver",
                packet.dst, packet.uid, packet.header.chunk,
                {"src": packet.src},
            )
        net._sinks[packet.dst](packet)


class Network:
    """Delivers packets over a :class:`~repro.net.topology.Topology`.

    NICs attach with a sink callable; ``inject`` is fire-and-forget (the
    NIC's transmit engine has already accounted for injection
    serialization by waiting on the first link through this traversal).
    """

    def __init__(
        self,
        sim: "Simulator",
        topology: Topology,
        loss: LossModel | None = None,
    ):
        self.sim = sim
        self.topology = topology
        self.loss = loss or NoLoss()
        self.loss.bind(sim)
        self._sinks: dict[int, Callable[[Packet], None]] = {}
        self.delivered = 0
        self.dropped = 0
        #: Packets discarded because a link/switch on their path was
        #: down (distinct from ``dropped``, the loss-model CRC drops).
        self.failure_dropped = 0
        # Per-packet fast path: probe the topology's own route memo (one
        # dict probe per traversal; the topology clears it in place on
        # every wiring change and failure transition) and fold the
        # bandwidth division into a multiply.
        self._routes: dict[tuple[int, int], list] = topology._route_cache
        self._inv_bandwidth = 1.0 / topology.bandwidth

    def attach(self, nic_id: int, sink: Callable[[Packet], None]) -> None:
        """Register NIC *nic_id*'s receive handler."""
        if nic_id in self._sinks:
            raise ValueError(f"NIC {nic_id} already attached")
        if not 0 <= nic_id < self.topology.n_nodes:
            raise RoutingError(f"NIC id {nic_id} outside topology")
        self._sinks[nic_id] = sink

    def close(self) -> None:
        """Teardown: drop the sinks, methods of NICs holding this network."""
        self._sinks.clear()

    def inject(
        self,
        packet: Packet,
        on_injected: Callable[[Packet], None] | None = None,
    ) -> None:
        """Send *packet* from its header.src to header.dst.

        ``on_injected`` fires when the packet's tail has left the source
        NIC (the transmit DMA engine is done) — the moment a GM-2
        descriptor callback runs.  The traversal itself is a callback
        chain (:class:`_Traversal`) kicked off by an URGENT callback in
        the heap slot the old traversal process's boot event occupied.
        """
        if packet.dst not in self._sinks:
            raise RoutingError(f"no NIC attached at {packet.dst}")
        key = (packet.src, packet.dst)
        links = self._routes.get(key)
        if links is None:
            try:
                links = self.topology.route(*key)
            except RoutingError:
                topo = self.topology
                if not topo._down_edges and not topo._down_switches:
                    raise  # genuine misconfiguration, not a failure
                self._drop_unroutable(packet, on_injected)
                return
        walk = _Traversal(self, packet, links, on_injected)
        sim = self.sim
        fr = sim.flight
        if fr is not None and packet.header.trace_id >= 0:
            fr.record(
                sim._now, packet.header.trace_id, "inject",
                packet.src, packet.uid, packet.header.chunk,
                {"dst": packet.dst},
            )
        freelist = sim._cb_freelist
        if freelist:
            cell = freelist.pop()
            cell.fn = walk._claim
        else:
            cell = _Callback(walk._claim)
        sim._now_uq.append(cell)

    def _drop_unroutable(
        self,
        packet: Packet,
        on_injected: Callable[[Packet], None] | None,
    ) -> None:
        """Discard a packet with no live route (source-link death etc.).

        Fires ``on_injected`` after the injection serialization time so
        the sending NIC's transmit engine never wedges on a descriptor
        callback that would otherwise never come.
        """
        sim = self.sim
        self.failure_dropped += 1
        m = sim.metrics
        if m is not None:
            m.inc("net.failure_drops")
        if sim.trace.enabled:
            sim.record(
                "network",
                "pkt_failure_drop",
                uid=packet.uid,
                src=packet.src,
                dst=packet.dst,
                seq=packet.header.seq,
                ptype=packet.header.ptype.value,
                link="unroutable",
            )
        fr = sim.flight
        if fr is not None and packet.header.trace_id >= 0:
            fr.record(
                sim._now, packet.header.trace_id, "failure_drop",
                packet.dst, packet.uid, packet.header.chunk,
                {"link": "unroutable"},
            )
        if on_injected is not None:
            ser = packet.wire_size * self._inv_bandwidth
            sim.schedule_callback(
                sim._now + ser, lambda: on_injected(packet)
            )

    def min_latency(self, src: int, dst: int, wire_size: int) -> float:
        """Uncontended wire time for a packet of *wire_size* bytes."""
        return (
            self.topology.route_latency(src, dst)
            + wire_size * self._inv_bandwidth
        )
