"""The NIC-based multisend (root side of the multicast).

"The host posts only one multisend request.  The NIC then finds a
corresponding list of destinations and queues the message for
transmission to the first destination.  When that transmission completes,
the NIC modifies the packet header and queues it for transmission to
another destination, and so on.  The same data is transmitted again with
a small overhead" (paper §3).

Of the three design alternatives in §5 (multiple send tokens; descriptor
callbacks; header rewrite during transmit) the paper implements the
second — descriptor callbacks — and so do we.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.net.packet import GM_HEADER_BYTES, split_message
from repro.nic.descriptor import PacketDescriptor
from repro.nic.lanai import TX_PRIO_DATA

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mcast.engine import McastEngine
    from repro.mcast.group import GroupState, McastSendCommand
    from repro.mcast.reliability import McastRecord

__all__ = ["Multisend"]


class Multisend:
    """Root-side multisend: one of ``McastEngine``'s composed components.

    Owns the replica-chain emission (descriptor callbacks), which the
    forwarding component shares for its own replica chains.
    """

    def __init__(self, engine: "McastEngine"):
        self.engine = engine
        self.nic = engine.nic
        self.gm = engine.gm
        self.sim = engine.sim
        self.cost = engine.cost
        self.table = engine.table

    def _handle_mcast_send(self, cmd: "McastSendCommand") -> Generator:
        token = cmd.token
        assert token is not None
        # One send-token translation for the whole multisend — this is
        # the processing host-based multiple unicasts repeat per
        # destination (Fig. 2a vs 2b).
        yield self.nic.processing(self.cost.nic_send_token_processing)
        group = self.table.require(cmd.group_id)
        if not group.is_root:
            raise RuntimeError(
                f"{self.nic.name}: multisend into group {group.group_id} "
                "from a non-root member"
            )
        chunks = split_message(token.size, self.cost.mtu)
        token.context["records_pending"] = len(chunks)
        if not group.children:
            # Degenerate group: nothing to send; complete immediately.
            token.all_packets_sent = True
            token.unacked_packets = 0
            self.engine._root_token_complete(group, token)
            return
        for idx, payload in enumerate(chunks):
            yield self.nic.processing(self.cost.nic_per_packet_send)
            record = self._make_record(group, token, idx, payload, len(chunks))
            if idx == 0 and token.context.get("info"):
                record.app_info = token.context["info"]
            # The data fetch goes through the staging pipeline (shared
            # with GM unicast) so it overlaps the wire and later chunks.
            self.gm.stage(
                lambda group=group, record=record: (
                    self._stage_multisend_chunk(group, record)
                )
            )
        token.all_packets_sent = True

    def _stage_multisend_chunk(self, group, record):
        buf = yield self.nic.send_buffers.acquire()
        # The message crosses the PCI bus ONCE, whatever the fanout.
        yield self.nic.dma(record.payload + GM_HEADER_BYTES)
        fr = self.sim.flight
        if fr is not None and record.trace_id >= 0:
            fr.record(
                self.sim.now, record.trace_id, "dma", self.nic.id,
                -1, record.chunk,
            )
        self.engine.reliability.arm(group, record)
        first, rest = group.children[0], group.children[1:]
        pkt = self.engine._build_mcast_packet(group, record, first)
        desc = PacketDescriptor(
            pkt,
            buffer=buf,
            on_transmit=self._replica_callback,
            context={"remaining": list(rest), "record": record,
                     "group": group},
        )
        record.sent_at = self.sim.now
        self.nic.queue_tx(desc, TX_PRIO_DATA)
        self.engine.reliability.sender_engine(group).on_data_queued(
            group, record
        )

    def _make_record(
        self,
        group: "GroupState",
        token,
        chunk: int,
        payload: int,
        nchunks: int,
    ) -> "McastRecord":
        from repro.mcast.reliability import McastRecord

        record = McastRecord(
            seq=group.alloc_seq(),
            group_id=group.group_id,
            msg_id=token.msg_id,
            chunk=chunk,
            nchunks=nchunks,
            payload=payload,
            msg_size=token.size,
            unacked=set(group.children),
            token=token,
            trace_id=token.context.get("trace_id", -1),
        )
        group.window.add(record)
        if chunk == 0:
            group.msg_meta[token.msg_id] = (
                record.seq, nchunks, token.size, record.trace_id
            )
        token.unacked_packets += 1
        return record

    def _replica_callback(self, desc: PacketDescriptor):
        """GM-2 descriptor callback: retarget the same SRAM bytes at the
        next destination, or release the buffer after the last replica."""
        remaining: list[int] = desc.context["remaining"]
        if not remaining:
            if desc.buffer is not None:
                desc.buffer.release()
            return None
        return self._emit_next_replica(desc, remaining)

    def _emit_next_replica(
        self, desc: PacketDescriptor, remaining: list[int]
    ) -> Generator:
        # "The same data is transmitted again with a small overhead" —
        # the header rewrite on the NIC processor.  Under the paper's
        # third design alternative the rewrite overlapped the previous
        # transmission, so the inter-replica gap omits it.
        if not self.cost.multisend_inline_rewrite:
            yield self.nic.processing(self.cost.nic_header_rewrite)
        nxt = remaining.pop(0)
        desc.retarget(dst=nxt)
        m = self.sim.metrics
        if m is not None:
            m.inc("mcast.replicas_sent")
        if self.sim.trace.enabled:
            self.sim.record(
                self.nic.name, "replica", seq=desc.packet.header.seq, dst=nxt,
                group=desc.packet.header.group,
            )
        # Each replica emission refreshes the send record's timestamp
        # and timer — the retransmission clock must not start ticking
        # for children whose replica has not left the NIC yet.
        record = desc.context.get("record")
        group = desc.context.get("group")
        if (
            record is not None
            and group is not None
            and record.seq in group.window
        ):
            record.sent_at = self.sim.now
            self.engine.reliability.arm(group, record)
        self.nic.queue_tx(desc, TX_PRIO_DATA)
