"""The multicast engine: composition root for the NIC-based scheme.

One :class:`McastEngine` attaches to each node's NIC alongside the GM
engine and composes three explicit components — :class:`Multisend`
(root-side replica chains), :class:`Forwarding` (intermediate-node
forwarding), and :class:`McastReliability` (acks, timers, selective
Go-back-N on the :mod:`repro.proto` core) — registering each component's
handlers for the packets and host commands it owns.  The engine itself
keeps only what the components share: the group table, statistics,
packet construction, and completion plumbing.  The GM code paths are
untouched (the paper: "Our modification to GM was done by leaving the
code for other types of communications mostly unchanged").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.gm.tokens import SendToken
from repro.mcast.forward import Forwarding
from repro.mcast.group import (
    CreateGroupCommand,
    GroupState,
    GroupTable,
    McastSendCommand,
    ReplayCommand,
    UpdateGroupCommand,
    _HeldMessage,
)
from repro.mcast.multisend import Multisend
from repro.mcast.reliability import McastRecord, McastReliability
from repro.net.packet import Packet, PacketType, make_packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.host.node import Node

__all__ = ["McastEngine"]


class McastEngine:
    """NIC-resident multicast protocol for one node."""

    def __init__(self, node: "Node"):
        self.nic = node.nic
        self.gm = node.gm
        self.memory = node.memory
        self.sim = node.sim
        self.cost = node.cost
        self.table = GroupTable()

        # statistics
        self.retransmissions = 0
        self.duplicates_dropped = 0
        self.out_of_order_dropped = 0
        self.no_token_dropped = 0
        self.unknown_group_dropped = 0
        self.messages_forwarded = 0

        # components (reliability before the paths that arm its timers)
        self.reliability = McastReliability(self)
        self.multisend = Multisend(self)
        self.forwarding = Forwarding(self)

        nic = self.nic
        nic.command_handlers[McastSendCommand] = (
            self.multisend._handle_mcast_send
        )
        nic.command_handlers[CreateGroupCommand] = self._handle_create_group
        nic.command_handlers[UpdateGroupCommand] = self._handle_update_group
        nic.command_handlers[ReplayCommand] = self._handle_replay
        nic.packet_handlers[PacketType.MCAST_DATA] = (
            self.forwarding._handle_mcast_data
        )
        nic.packet_handlers[PacketType.MCAST_ACK] = (
            self.reliability._handle_mcast_ack
        )
        nic.packet_handlers[PacketType.MCAST_NACK] = (
            self.reliability._handle_mcast_nack
        )
        nic.packet_handlers[PacketType.MCAST_FEC] = (
            self.forwarding._handle_mcast_fec
        )

    def close(self) -> None:
        """Teardown: drop the group timer callbacks and the components,
        which refer back here."""
        if self.reliability is None:
            return  # already closed
        for group in self.table._groups.values():
            if group.timer is not None:
                group.timer.on_expire = None
        self.reliability.close()
        self.reliability = self.multisend = self.forwarding = None

    # -- group management -------------------------------------------------
    def _handle_create_group(self, cmd: CreateGroupCommand) -> Generator:
        yield self.nic.processing(self.cost.nic_group_lookup)
        assert cmd.state is not None
        if cmd.replace and cmd.state.group_id in self.table:
            self.table.remove(cmd.state.group_id)
        self.table.install(cmd.state)
        self._observe_fanout(cmd.state)

    def _handle_update_group(self, cmd: UpdateGroupCommand) -> Generator:
        """Apply a tree repair to this node's group view, in place.

        Sequence state (``recv_seq``, ``next_send_seq``, per-child acks)
        survives; only the parent/children wiring changes.  Departed
        children stop being this node's responsibility (their records'
        pending-ack entries are discharged); arriving children are
        resynced from the retransmit window.
        """
        yield self.nic.processing(self.cost.nic_group_lookup)
        group = self.table.get(cmd.group_id)
        if group is None:
            return
        old_parent = group.parent
        old_children = set(group.children)
        group.parent = cmd.parent
        group.children = tuple(cmd.children)
        if self.sim.trace.enabled:
            self.sim.record(
                self.nic.name, "group_update", group=group.group_id,
                parent=-1 if cmd.parent is None else cmd.parent,
                children=list(cmd.children),
            )
        removed = old_children - set(group.children)
        for child in sorted(removed):
            group.child_acked.pop(child, None)
            for record in group.window.remove_child(child):
                self._record_completed(group, record)
        added = [c for c in group.children if c not in old_children]
        for child in added:
            group.child_acked.setdefault(child, 0)
        if added:
            yield from self.reliability.resync_children(group, added)
        if group.parent is not None and group.parent != old_parent:
            # Tell the new parent how far this subtree already got, so
            # its resync replay stops as early as possible.
            yield from self.reliability.send_group_ack(group)

    def _handle_replay(self, cmd: ReplayCommand) -> Generator:
        """Push the outstanding backlog to one (recovered) child now,
        rather than waiting out the retransmission timer."""
        yield self.nic.processing(self.cost.nic_group_lookup)
        group = self.table.get(cmd.group_id)
        if group is None or cmd.child not in group.child_acked:
            return
        m = self.sim.metrics
        for seq in group.window.seqs():
            record = group.window.get(seq)
            if record is None or cmd.child not in record.unacked:
                continue
            self.reliability.arm(group, record)
            if m is not None:
                m.inc("mcast.recovery.replays")
            yield from self.reliability.retransmit(
                group, record, cmd.child, replay=True
            )

    def install_group_now(self, state: GroupState) -> None:
        """Zero-cost install (experiment setup before time starts)."""
        self.table.install(state)
        self._observe_fanout(state)

    def _observe_fanout(self, state: GroupState) -> None:
        """Record this node's fan-out in the group's spanning tree."""
        m = self.sim.metrics
        if m is not None:
            m.observe(
                "mcast.group_fanout", len(state.children),
                (0, 1, 2, 4, 8, 16, 32, 64),
            )

    # -- host-facing send ----------------------------------------------------
    def multicast_send(
        self, port, group_id: int, size: int, caller=None, info=None
    ) -> Generator:
        """Root-side host call: post one multisend request.

        Usage from a host program: ``handle = yield from
        node.mcast.multicast_send(port, gid, nbytes)``.
        """
        port._check_owner(caller)
        handle = port.take_send_token(-1, port.port_num, size, info=info)
        token = handle.token
        fr = self.sim.flight
        if fr is not None:
            tid = fr.begin(
                self.sim.now, self.nic.id, "mcast", size=size,
                group=group_id, msg_id=token.msg_id,
            )
            if tid >= 0:
                token.context["trace_id"] = tid
        yield self.sim.timeout(self.cost.host_send_post)
        self.nic.post_command(
            McastSendCommand(port=port.port_num, token=token, group_id=group_id)
        )
        return handle

    # -- packet construction -----------------------------------------------------
    def _build_mcast_packet(
        self, group: GroupState, record: McastRecord, child: int
    ) -> Packet:
        # make_packet: one header per (packet, child) transmission makes
        # this a serving-rate hot site.
        pkt = make_packet(
            PacketType.MCAST_DATA, self.nic.id, child, group.root,
            group=group.group_id,
            port=group.port_num,
            from_port=group.port_num,
            seq=record.seq,
            msg_id=record.msg_id,
            chunk=record.chunk,
            nchunks=record.nchunks,
            payload=record.payload,
            msg_size=record.msg_size,
            trace_id=record.trace_id,
        )
        if record.chunk == 0 and record.app_info:
            pkt.header.info["app"] = record.app_info
        return pkt

    # -- completion plumbing ---------------------------------------------------------
    def _record_completed(self, group: GroupState, record: McastRecord) -> None:
        """All children acknowledged one packet."""
        if record.token is not None:
            # Root: account against the multisend token.
            token = record.token
            token.unacked_packets -= 1
            if token.complete:
                self._root_token_complete(group, token)
            return
        # Intermediate: account against the held message.
        held = group.held.get(record.msg_id)
        if held is None:
            return
        held.pending_records -= 1
        self._maybe_release_held(group, held)

    def _root_token_complete(self, group: GroupState, token: SendToken) -> None:
        port = self.gm.ports.get(token.port_num)
        if self.sim.trace.enabled:
            self.sim.record(
                self.nic.name, "mcast_send_complete", group=group.group_id,
                msg=token.msg_id,
            )
        if port is not None:
            port.complete_send(token)

    def _maybe_release_held(self, group: GroupState, held: _HeldMessage) -> None:
        """Release host pin + receive token once delivery AND forwarding
        obligations are both fully discharged."""
        done_forwarding = (
            held.all_records_created and held.pending_records == 0
        ) or not group.children
        if not (done_forwarding and held.delivered_to_host):
            return
        group.held.pop(held.msg_id, None)
        self.messages_forwarded += bool(group.children)
        if held.region is not None:
            held.region.unpin()
            self.memory.deregister(held.region)
        if held.token is not None:
            held.token.transformed = False
            port = self.gm.ports.get(group.port_num)
            if port is not None:
                port.return_recv_token(held.token)

    # -- introspection -------------------------------------------------------------------
    def pending_retransmit_state(self) -> dict[int, int]:
        """group_id -> number of unacked records (for tests/monitoring)."""
        return {
            gid: len(state.records)
            for gid, state in self.table._groups.items()
            if state.records
        }
