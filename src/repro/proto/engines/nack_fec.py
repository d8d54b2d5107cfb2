"""NACK + XOR-FEC: parity blocks repair single losses with no round trip.

Extends the :mod:`~repro.proto.engines.nack` family: every *sending*
node (the root's multisend and each forwarding intermediate — parity is
generated per hop, never forwarded) emits one MCAST_FEC parity packet
per ``fec_block`` data packets of its own transmitted stream, flushing a
partial block at each message boundary so blocks never straddle
messages.  The parity header carries the block's member descriptors;
the packet's wire payload is the widest member's (the XOR block size).

A receiver missing **exactly one** member of an arriving parity block
reconstructs it locally — synthesizing the data packet and feeding it
back through the ordinary receive path, so sequencing, acks, forwarding
and host delivery all behave as if the wire had delivered it — with no
repair round-trip at all.  Zero missing members: the parity was
redundant.  Two or more: XOR cannot help; the NACK machinery recovers.

The byte-level codec this models is :mod:`repro.proto.engines.fec`
(length-prefixed XOR); the simulation carries payload sizes, so the
in-sim reconstruction is structural.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.net.packet import PacketType, make_packet
from repro.nic import PacketDescriptor
from repro.nic.lanai import TX_PRIO_DATA
from repro.proto.engines import EngineFamily, register_engine
from repro.proto.engines.nack import NACK_DEFAULTS, NackReceiver, NackSender

__all__ = ["NackFecReceiver", "NackFecSender"]

NACK_FEC_DEFAULTS = dict(NACK_DEFAULTS)
#: data packets protected by one parity packet (per sending node)
NACK_FEC_DEFAULTS["fec_block"] = 4


class NackFecReceiver(NackReceiver):
    """NACK receiver that can also cash in parity blocks."""

    __slots__ = ()
    name = "nack_fec"

    def _missing(self, group: Any, st: dict, members: tuple) -> list:
        received = st.get("r_received", ())
        return [
            member for member in members
            if member[0] > group.recv_seq and member[0] not in received
        ]

    def _hole_limit(self, group: Any, st: dict) -> int:
        """Missing seqs below this are definite losses (something later
        arrived on a FIFO link); at or above, possibly just in flight."""
        return max(st.get("r_received", ()), default=group.recv_seq)

    def on_parity(self, group: Any, pkt: Any) -> Generator:
        t = self.transport
        m = t.sim.metrics
        st = self.state(group)
        members = tuple(pkt.header.info.get("fec", ()))
        missing = self._missing(group, st, members)
        if not missing:
            return
        if len(missing) == 1 and missing[0][0] < self._hole_limit(group, st):
            # A definite hole, one erasure: reconstruct on the spot.
            yield from self._reconstruct(
                group, pkt.header.src, pkt.header.origin, missing[0]
            )
            return
        # Either >1 member absent (parity can overtake its own block's
        # data: replica chains interleave per-child emission) or the
        # one absentee may still be in flight.  Hold the parity:
        # accepts re-evaluate it, and the quiescence timer cashes it in
        # for overdue tail losses.
        if len(missing) > 1 and m is not None:
            m.inc("proto.fec_insufficient")
        st.setdefault("r_parity", []).append(
            (pkt.header.src, pkt.header.origin, members)
        )

    def on_accept(self, group: Any, h: Any) -> None:
        super().on_accept(group, h)
        st = self.state(group)
        held = st.get("r_parity")
        if not held:
            return
        t = self.transport
        hole_limit = self._hole_limit(group, st)
        keep = []
        for src, origin, members in held:
            missing = self._missing(group, st, members)
            if not missing:
                continue  # fully arrived: parity was redundant
            if len(missing) == 1 and missing[0][0] < hole_limit:
                # Reconstruction re-enters the receive path as its own
                # process (this hook runs inside packet handling).
                t.sim.process(
                    self._reconstruct(group, src, origin, missing[0]),
                    name=f"{t.nic.name}.fec_repair",
                )
            else:
                keep.append((src, origin, members))
        st["r_parity"] = keep

    def _repair_from_parity(
        self, group: Any, st: dict, gaps: list[int]
    ) -> list[int]:
        """Quiescence-timer hook: overdue gaps covered by a held parity
        with exactly one absent member reconstruct locally — the NACK
        round trip is skipped for them entirely."""
        held = st.get("r_parity")
        if not held:
            return gaps
        t = self.transport
        keep: list[tuple] = []
        repaired: set[int] = set()
        for src, origin, members in held:
            missing = [
                member for member in self._missing(group, st, members)
                if member[0] not in repaired
            ]
            if not missing:
                continue
            if len(missing) == 1:
                repaired.add(missing[0][0])
                t.sim.process(
                    self._reconstruct(group, src, origin, missing[0]),
                    name=f"{t.nic.name}.fec_repair",
                )
            else:
                keep.append((src, origin, members))
        st["r_parity"] = keep
        return [seq for seq in gaps if seq not in repaired]

    def _defer_gaps(
        self, group: Any, st: dict, gaps: list[int]
    ) -> list[int]:
        """NACK is this family's *backstop*: parity covering a fresh gap
        is usually still in the sender's transmit queue (it trails the
        block it protects, plus the replica chain), so each gap gets one
        extra timer cycle before its first NACK.  Single per-hop losses
        then repair from parity with no NACK at all; only multi-loss
        blocks and lost parity pay the (backed-off) round trip."""
        deferred = st.setdefault("r_fec_deferred", set())
        deferred.difference_update(
            seq for seq in tuple(deferred) if seq <= group.recv_seq
        )
        ready = [seq for seq in gaps if seq in deferred]
        deferred.update(gaps)
        return ready

    def _reconstruct(
        self, group: Any, src: int, origin: int, member: tuple
    ) -> Generator:
        t = self.transport
        m = t.sim.metrics
        seq, msg_id, chunk, nchunks, payload, msg_size, trace_id, app = member
        if m is not None:
            m.inc("proto.fec_repairs")
        data = make_packet(
            PacketType.MCAST_DATA, src, t.nic.id, origin,
            group=group.group_id,
            port=group.port_num,
            from_port=group.port_num,
            seq=seq,
            msg_id=msg_id,
            chunk=chunk,
            nchunks=nchunks,
            payload=payload,
            msg_size=msg_size,
            trace_id=trace_id,
        )
        if app:
            data.header.info["app"] = dict(app)
        # Through the front door: the reconstruction is indistinguishable
        # from a wire arrival (acks, forwarding, host copy included).
        yield from t.inject_data(data)


class NackFecSender(NackSender):
    """NACK sender that shields its stream with per-block parity."""

    __slots__ = ()
    name = "nack_fec"

    def on_data_queued(self, group: Any, record: Any) -> None:
        block = self.state(group).setdefault("s_block", [])
        block.append((
            record.seq, record.msg_id, record.chunk, record.nchunks,
            record.payload, record.msg_size, record.trace_id,
            dict(record.app_info) if record.app_info else None,
        ))
        if (
            len(block) >= self.param(group, "fec_block")
            or record.chunk == record.nchunks - 1  # message boundary
        ):
            members, block[:] = list(block), []
            t = self.transport
            t.sim.process(
                self._emit_parity(group, members),
                name=f"{t.nic.name}.fec_parity",
            )

    def _emit_parity(self, group: Any, members: list[tuple]) -> Generator:
        t = self.transport
        yield t.nic.processing(t.cost.nic_per_packet_send)
        m = t.sim.metrics
        payload = max(member[4] for member in members)
        for child in group.children:
            pkt = make_packet(
                PacketType.MCAST_FEC, t.nic.id, child, group.root,
                group=group.group_id,
                port=group.port_num,
                from_port=group.port_num,
                seq=members[-1][0],  # diagnostic: newest protected seq
                payload=payload,
            )
            pkt.header.info["fec"] = list(members)
            if m is not None:
                m.inc("proto.fec_parity_sent")
            t.nic.queue_tx(PacketDescriptor(pkt), TX_PRIO_DATA)


register_engine(EngineFamily(
    name="nack_fec",
    title="NACK + XOR parity blocks (single-loss repair, no round trip)",
    sender_cls=NackFecSender,
    receiver_cls=NackFecReceiver,
    defaults=NACK_FEC_DEFAULTS,
))
