"""The one cumulative-ack builder.

The GM ACK and the multicast MCAST_ACK are the same wire action — spend
``nic_ack_generation`` of LANai time, build a zero-payload packet
carrying the receiver's cumulative sequence number, queue it at ack
priority — differing only in packet type, addressing, and whether a
group id rides in the header.  Both engines previously open-coded it;
they now call :func:`send_ack`.
"""

from __future__ import annotations

from typing import Generator

from repro.net.packet import Packet, PacketType, make_packet
from repro.nic import PacketDescriptor
from repro.nic.lanai import TX_PRIO_ACK

__all__ = ["build_ack_packet", "send_ack"]


def build_ack_packet(
    *,
    ptype: PacketType,
    src: int,
    dst: int,
    port: int,
    from_port: int,
    ack_seq: int,
    group: int | None = None,
) -> Packet:
    """A zero-payload cumulative acknowledgment packet."""
    # make_packet: one ack per data packet makes this the busiest
    # header-construction site in the stack.
    return make_packet(
        ptype, src, dst, src,
        port=port,
        from_port=from_port,
        ack_seq=ack_seq,
        group=group,
    )


def send_ack(
    nic,
    cost,
    *,
    ptype: PacketType,
    dst: int,
    port: int,
    from_port: int,
    ack_seq: int,
    group: int | None = None,
) -> Generator:
    """Generate and queue a cumulative ack from *nic* (a NIC coroutine).

    Models the LANai cost of building the ack, then hands it to the send
    DMA queue at :data:`~repro.nic.lanai.TX_PRIO_ACK` so acknowledgments
    overtake queued data.
    """
    yield nic.cpu.hold(cost.nic_ack_generation)
    ack = build_ack_packet(
        ptype=ptype,
        src=nic.id,
        dst=dst,
        port=port,
        from_port=from_port,
        ack_seq=ack_seq,
        group=group,
    )
    nic.queue_tx(PacketDescriptor(ack), TX_PRIO_ACK)
