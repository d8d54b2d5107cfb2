"""NIC-based forwarding (intermediate side of the multicast).

"When having received a multicast packet, the intermediate NIC looks into
its table to find a list of destinations for that packet.  This packet
can then be queued for forwarding with a changed header.  Thus the
overhead at the intermediate host to receive the message and initiate the
forwarding is eliminated.  For multiple packet messages ... an
intermediate NIC can forward the packets of a message without waiting for
the arrival of the complete message" (paper §3).

Design choices (paper §5) implemented here:

* the intermediate NIC **transforms the receive token into a send token**
  instead of drawing from the send-token pool (no new resource — no
  deadlock on token exhaustion);
* the SRAM receive buffer is released as soon as forwarding and the
  host-copy are done; **retransmission uses the replica in host memory**,
  which stays registered (pinned) until every child acknowledges.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.gm.api import RecvCompletion
from repro.net.packet import Packet
from repro.nic.descriptor import PacketDescriptor
from repro.nic.lanai import TX_PRIO_DATA

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mcast.engine import McastEngine
    from repro.mcast.group import GroupState, _HeldMessage
    from repro.mcast.reliability import McastRecord

__all__ = ["Forwarding"]


class Forwarding:
    """Intermediate-node forwarding: one of ``McastEngine``'s composed
    components.  Replica chains are shared with the multisend component;
    acks and timers go through the reliability component."""

    def __init__(self, engine: "McastEngine"):
        self.engine = engine
        self.nic = engine.nic
        self.gm = engine.gm
        self.memory = engine.memory
        self.sim = engine.sim
        self.cost = engine.cost
        self.table = engine.table

    def _handle_mcast_data(self, pkt: Packet, buf: Any) -> Generator:
        cpu = self.nic.cpu
        yield cpu.hold(self.cost.nic_recv_processing)
        h = pkt.header
        m = self.sim.metrics
        group = self.table.get(h.group)
        if group is None or group.is_root:
            # Unknown group (membership not yet preposted) or a stray
            # loop-back: drop; the parent's timeout recovers once the
            # group exists.
            self.engine.unknown_group_dropped += 1
            if m is not None:
                m.inc("mcast.drops.unknown_group")
            if buf is not None:
                buf.release()
            return
        # The group's reliability family decides acceptance.  For the
        # ack-window family the hooks are pure (zero simulated events):
        # duplicate iff seq <= recv_seq, accept iff seq == recv_seq + 1.
        receiver = self.engine.reliability.receiver_engine(group)
        verdict = receiver.classify(group, h)
        if verdict == "duplicate":
            self.engine.duplicates_dropped += 1
            if m is not None:
                m.inc("mcast.drops.duplicate")
            if buf is not None:
                buf.release()
            # Re-ack: exactly-once delivery must survive lost acks.
            yield from self.engine.reliability.send_group_ack(group)
            return
        if verdict != "accept":
            self.engine.out_of_order_dropped += 1
            if m is not None:
                m.inc("mcast.drops.out_of_order")
            if buf is not None:
                buf.release()
            return
        port = self.gm.ports.get(group.port_num)
        if port is None:
            if buf is not None:
                buf.release()
            return
        held = group.held.get(h.msg_id)
        if held is None:
            # First packet of a message: claim (and transform) a receive
            # token, and pin a host region for possible retransmission.
            rtoken = port.take_recv_token()
            if rtoken is None:
                self.engine.no_token_dropped += 1
                if m is not None:
                    m.inc("mcast.drops.no_token")
                self.sim.record(
                    self.nic.name, "mcast_no_token", group=h.group, seq=h.seq
                )
                if buf is not None:
                    buf.release()
                return
            rtoken.transformed = bool(group.children)
            held = self._hold_message(group, h, rtoken)
        if h.chunk == 0 and h.info.get("app"):
            held.app_info = dict(h.info["app"])
        if h.chunk == 0:
            # Every member (leaves included) remembers message geometry:
            # a later regraft can make any member a parent, and resyncing
            # its new children needs records regenerated from this.
            group.msg_meta[h.msg_id] = (
                h.seq, h.nchunks, h.msg_size, h.trace_id
            )
        receiver.on_accept(group, h)
        yield cpu.hold(self.cost.nic_group_lookup)
        if receiver.ack_after_accept(group, h):
            yield from self.engine.reliability.send_group_ack(group)

        # The same SRAM bytes are now wanted by two engines: the transmit
        # path (forwarding replicas) and the receive DMA (host copy).
        refs = 1  # host copy
        if group.children:
            refs += 1
            record = self._make_forward_record(group, held, h)
        else:
            record = None
        refbox = {"count": refs}
        if record is not None:
            # Forwarding continues in the background so the receive loop
            # can take the next packet off the wire immediately; ordering
            # is preserved by the copy engine's FIFO.
            self.sim.process(
                self._forward_packet(group, record, pkt, buf, refbox),
                name=f"{self.nic.name}.mcast_fwd",
            )
        self.sim.process(
            self._copy_to_host(group, held, pkt, buf, refbox),
            name=f"{self.nic.name}.mcast_rdma",
        )

    def _forward_packet(
        self, group: "GroupState", record: "McastRecord", pkt: Packet,
        buf, refbox,
    ) -> Generator:
        """Per-packet forwarding work at an intermediate NIC.

        The LANai does real work to forward: transform the receive token
        and set up per-child send records (on the processor), and stage
        the packet between the receive and transmit rings (on the copy
        engine).  The copy engine pipelines across the packets of one
        message, but a single-packet 2-4 KB message eats the full copy
        latency — the paper's Fig. 5b dip.
        """
        h = pkt.header
        forward_started = self.sim.now
        yield self.nic.processing(self.cost.nic_forward_processing)
        yield self.nic.sram_copy(h.payload)
        fr = self.sim.flight
        if fr is not None and h.trace_id >= 0:
            fr.record(
                self.sim.now, h.trace_id, "sram_copy", self.nic.id,
                pkt.uid, h.chunk,
            )
        self.engine.reliability.arm(group, record)
        first, rest = group.children[0], group.children[1:]
        fwd = pkt.clone(src=self.nic.id, dst=first)
        yield self.nic.processing(self.cost.nic_header_rewrite)
        desc = PacketDescriptor(
            fwd,
            buffer=buf,
            on_transmit=self._forward_callback,
            context={
                "remaining": list(rest),
                "record": record,
                "group": group,
                "refs": refbox,
            },
        )
        record.sent_at = self.sim.now
        m = self.sim.metrics
        if m is not None:
            m.observe("nic.forward_service_us", self.sim.now - forward_started)
        if self.sim.trace.enabled:
            self.sim.record(
                self.nic.name, "forward", group=h.group, seq=h.seq,
                chunk=h.chunk, first_child=first,
            )
        self.nic.queue_tx(desc, TX_PRIO_DATA)
        self.engine.reliability.sender_engine(group).on_data_queued(
            group, record
        )

    def _handle_mcast_fec(self, pkt: Packet, buf: Any) -> Generator:
        """Parity packet (NACK+FEC family): hand it to the receiver
        engine, which may reconstruct one lost data packet in place
        (no repair round-trip).  Parity is hop-local — it is consumed
        here, never forwarded; each forwarding hop emits its own."""
        yield self.nic.cpu.hold(self.cost.nic_recv_processing)
        h = pkt.header
        group = self.table.get(h.group)
        if buf is not None:
            buf.release()
        if group is None or group.is_root:
            self.engine.unknown_group_dropped += 1
            m = self.sim.metrics
            if m is not None:
                m.inc("mcast.drops.unknown_group")
            return
        receiver = self.engine.reliability.receiver_engine(group)
        yield from receiver.on_parity(group, pkt)

    def _hold_message(self, group: "GroupState", h, rtoken) -> "_HeldMessage":
        from repro.mcast.group import _HeldMessage

        held = _HeldMessage(
            msg_id=h.msg_id,
            nchunks=h.nchunks,
            msg_size=h.msg_size,
            src=h.origin,
            token=rtoken,
        )
        if group.children:
            # Pin the host replica for retransmission until all children
            # acknowledge everything (keeps GM's registered-memory rule).
            held.region = self.memory.register(h.msg_size)
            held.region.pin()
        group.held[h.msg_id] = held
        return held

    def _make_forward_record(
        self, group: "GroupState", held: "_HeldMessage", h
    ) -> "McastRecord":
        from repro.mcast.reliability import McastRecord

        record = McastRecord(
            seq=h.seq,  # "the same sequence number and send record"
            group_id=group.group_id,
            msg_id=h.msg_id,
            chunk=h.chunk,
            nchunks=h.nchunks,
            payload=h.payload,
            msg_size=h.msg_size,
            unacked=set(group.children),
            token=None,
            app_info=held.app_info if h.chunk == 0 and held.app_info else None,
            trace_id=h.trace_id,
        )
        group.window.add(record)
        held.pending_records += 1
        if h.chunk == h.nchunks - 1:
            held.all_records_created = True
        return record

    def _forward_callback(self, desc: PacketDescriptor):
        """Replica chain for forwarding: same as the multisend callback,
        but the buffer is shared with the host-copy DMA (refcounted)."""
        remaining: list[int] = desc.context["remaining"]
        if not remaining:
            self._drop_ref(desc.buffer, desc.context["refs"])
            return None
        return self.engine.multisend._emit_next_replica(desc, remaining)

    def _drop_ref(self, buf, refbox) -> None:
        refbox["count"] -= 1
        if refbox["count"] == 0 and buf is not None:
            buf.release()

    def _copy_to_host(
        self, group: "GroupState", held: "_HeldMessage", pkt: Packet,
        buf, refbox,
    ) -> Generator:
        """RDMA the packet up to the host, off the forwarding critical
        path; deliver the receive event once all chunks have landed."""
        nic = self.nic
        yield nic.pci.hold(nic.cost.dma_write_time(pkt.header.payload))
        self._drop_ref(buf, refbox)
        held.chunks_delivered += 1
        if held.chunks_delivered < held.nchunks:
            return
        yield self.nic.processing(self.cost.nic_event_post)
        held.delivered_to_host = True
        fr = self.sim.flight
        if fr is not None and pkt.header.trace_id >= 0:
            fr.record(
                self.sim.now, pkt.header.trace_id, "host_deliver",
                self.nic.id, pkt.uid, pkt.header.chunk,
            )
        port = self.gm.ports.get(group.port_num)
        if port is not None:
            port.deliver_event(
                RecvCompletion(
                    src=held.src,
                    src_port=group.port_num,
                    size=held.msg_size,
                    msg_id=held.msg_id,
                    group=group.group_id,
                    received_at=self.sim.now,
                    info=held.app_info,
                )
            )
        self.engine._maybe_release_held(group, held)
