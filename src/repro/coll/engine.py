"""NIC-resident tree aggregation: barrier and allreduce on the LANai.

Protocol (per multicast group, per *epoch* — one epoch per collective
call):

* every host posts its contribution to its NIC (a host command);
* a NIC that has its host's contribution **and** an UP message from each
  child combines them (``nic_reduce_combine`` per combine) and sends one
  UP to its parent;
* the root, once complete, starts the DOWN wave carrying the result;
  each NIC delivers the result to its host (completion event) and
  forwards DOWN to its children;
* reliability: UP is resent while no DOWN for that epoch has arrived;
  DOWN is resent to children that have not DOWN_ACKed.  All messages are
  idempotent per epoch, so duplicates are harmless.

A barrier is an allreduce whose values are ``None`` and whose combine is
a no-op — it completes when everyone has arrived, exactly like the
NIC-level barrier of the paper's reference [6].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.errors import GroupError, ReproError
from repro.net.packet import Packet, PacketType, make_packet
from repro.nic.descriptor import PacketDescriptor
from repro.nic.lanai import HostCommand, TX_PRIO_ACK
from repro.sim.events import SimEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.host.node import Node
    from repro.mcast.group import GroupState

__all__ = ["CollectiveEngine", "CollContributeCommand", "REDUCE_OPS"]

#: Supported reduction operators.
REDUCE_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": lambda a, b: a + b,
    "min": min,
    "max": max,
    "prod": lambda a, b: a * b,
    "barrier": lambda a, b: None,
}


@dataclass
class CollContributeCommand(HostCommand):
    """Host → NIC: this host's contribution to (group, epoch)."""

    group_id: int = -1
    epoch: int = 0
    value: Any = None
    op: str = "barrier"


@dataclass
class _EpochState:
    op: str
    host_value: Any = None
    host_arrived: bool = False
    child_values: dict[int, Any] = field(default_factory=dict)
    up_last_sent: float = -1.0
    up_generation: int = 0
    result: Any = None
    down_started: bool = False
    down_acked: set[int] = field(default_factory=set)
    down_generation: int = 0
    delivered: bool = False


class _GroupColl:
    """Per-group collective state on one NIC."""

    def __init__(self, group: "GroupState"):
        self.group = group
        self.epochs: dict[int, _EpochState] = {}
        #: epochs fully completed (result delivered + children acked)
        self.completed: int = 0
        #: results of recently completed epochs, kept so a duplicate UP
        #: from a child whose DOWN crossed our ack can be answered
        #: without resurrecting state
        self.finished_results: dict[int, Any] = {}

    def epoch(self, epoch: int, op: str) -> _EpochState:
        state = self.epochs.get(epoch)
        if state is None:
            state = _EpochState(op=op)
            self.epochs[epoch] = state
        return state


class CollectiveEngine:
    """One node's NIC-based collective support."""

    def __init__(self, node: "Node"):
        self.nic = node.nic
        self.sim = node.sim
        self.cost = node.cost
        self.mcast = node.mcast
        self._state: dict[int, _GroupColl] = {}
        #: (group, epoch) -> host wait event, fired with the result
        self._waiters: dict[tuple[int, int], SimEvent] = {}
        #: host-side epoch counters per group
        self._next_epoch: dict[int, int] = {}
        self.up_resends = 0
        self.down_resends = 0
        self.unknown_group_dropped = 0

        self.nic.command_handlers[CollContributeCommand] = self._handle_contribute
        self.nic.packet_handlers[PacketType.CONTROL] = self._handle_control

    # -- host API -----------------------------------------------------------
    def allreduce(
        self, port, group_id: int, value: Any, op: str = "sum", caller: Any = None
    ) -> Generator[Any, Any, Any]:
        """Blocking NIC-based allreduce over the group's tree.

        Host program usage: ``result = yield from
        node.coll.allreduce(port, gid, value)``.
        """
        port._check_owner(caller)
        if op not in REDUCE_OPS:
            raise ReproError(f"unknown reduce op {op!r}")
        epoch = self._next_epoch.get(group_id, 0) + 1
        self._next_epoch[group_id] = epoch
        done = self.sim.event(name=f"coll[{self.nic.id}]:{group_id}@{epoch}")
        self._waiters[(group_id, epoch)] = done
        yield self.sim.timeout(self.cost.host_send_post)
        self.nic.post_command(
            CollContributeCommand(
                port=port.port_num, group_id=group_id, epoch=epoch,
                value=value, op=op,
            )
        )
        result = yield done
        yield self.sim.timeout(self.cost.host_event_dispatch)
        return result

    def barrier(self, port, group_id: int, caller: Any = None) -> Generator:
        """Blocking NIC-based barrier (degenerate allreduce)."""
        yield from self.allreduce(port, group_id, None, op="barrier",
                                  caller=caller)

    # -- NIC-side state machine -------------------------------------------------
    def _group_coll(self, group_id: int) -> _GroupColl:
        state = self._state.get(group_id)
        if state is None:
            group = self.mcast.table.get(group_id)
            if group is None:
                raise GroupError(
                    f"collective on unknown group {group_id} "
                    f"(NIC {self.nic.id})"
                )
            state = _GroupColl(group)
            self._state[group_id] = state
        return state

    def _handle_contribute(self, cmd: CollContributeCommand) -> Generator:
        yield self.nic.processing(self.cost.nic_group_lookup)
        coll = self._group_coll(cmd.group_id)
        state = coll.epoch(cmd.epoch, cmd.op)
        state.host_arrived = True
        state.host_value = cmd.value
        yield from self._advance(cmd.group_id, coll, cmd.epoch)

    def _handle_control(self, pkt: Packet, _buf: Any) -> Generator:
        h = pkt.header
        info = h.info
        if "coll" not in info:
            return  # not ours (other CONTROL users may exist)
        yield self.nic.processing(self.cost.nic_recv_processing)
        group_id = h.group
        if self.mcast.table.get(group_id) is None:
            # The group's membership has not reached this NIC yet (a
            # fast peer raced the demand-driven install); drop — the
            # sender's idempotent resend recovers.
            self.unknown_group_dropped += 1
            return
        coll = self._group_coll(group_id)
        kind = info["coll"]
        epoch = info["epoch"]
        if kind == "up":
            if epoch <= coll.completed:
                # Our DOWN crossed this child's resent UP: answer from
                # the finished-results cache, never resurrect state.
                if epoch in coll.finished_results:
                    yield from self._send_control(
                        h.src, group_id,
                        {"coll": "down", "epoch": epoch, "op": info["op"],
                         "value": coll.finished_results[epoch]},
                    )
                return
            state = coll.epoch(epoch, info["op"])
            if h.src not in state.child_values:
                state.child_values[h.src] = info.get("value")
            yield from self._advance(group_id, coll, epoch)
        elif kind == "down":
            # Ack the parent (idempotent) so it stops resending.
            yield from self._send_control(
                coll.group.parent, group_id,
                {"coll": "down_ack", "epoch": epoch},
            )
            if epoch <= coll.completed:
                return  # duplicate of an already-finished epoch
            state = coll.epoch(epoch, info["op"])
            if not state.down_started:
                state.result = info.get("value")
                state.down_started = True
                yield from self._deliver_and_descend(group_id, coll, epoch)
        elif kind == "down_ack":
            state = coll.epochs.get(epoch)
            if state is not None:
                state.down_acked.add(h.src)
                self._maybe_complete_epoch(coll, epoch)

    def _advance(self, group_id: int, coll: _GroupColl, epoch: int) -> Generator:
        """Combine and move the UP wave if (host + all children) arrived."""
        state = coll.epochs[epoch]
        group = coll.group
        if not state.host_arrived:
            return
        if set(state.child_values) != set(group.children):
            return
        combine = REDUCE_OPS[state.op]
        value = state.host_value
        for child in group.children:
            yield self.nic.processing(self.cost.nic_reduce_combine)
            value = combine(value, state.child_values[child])
        if group.is_root:
            state.result = value
            state.down_started = True
            yield from self._deliver_and_descend(group_id, coll, epoch)
        else:
            yield from self._send_up(group_id, coll, epoch, value)

    def _send_up(self, group_id: int, coll: _GroupColl, epoch: int,
                 value: Any) -> Generator:
        state = coll.epochs[epoch]
        state.up_last_sent = self.sim.now
        state.up_generation += 1
        generation = state.up_generation
        yield from self._send_control(
            coll.group.parent, group_id,
            {"coll": "up", "epoch": epoch, "op": state.op, "value": value},
        )
        # Resend until the DOWN wave for this epoch arrives.
        self.sim.schedule_callback(
            self.sim.now + self.cost.ack_timeout,
            lambda: self._up_timeout(group_id, epoch, generation, value),
        )

    def _up_timeout(self, group_id: int, epoch: int, generation: int,
                    value: Any) -> None:
        coll = self._state.get(group_id)
        state = coll.epochs.get(epoch) if coll else None
        if state is None or state.down_started:
            return
        if state.up_generation != generation:
            return
        self.up_resends += 1
        self.sim.process(
            self._send_up(group_id, coll, epoch, value),
            name=f"{self.nic.name}.coll_up_resend",
        )

    def _deliver_and_descend(self, group_id: int, coll: _GroupColl,
                             epoch: int) -> Generator:
        state = coll.epochs[epoch]
        group = coll.group
        if not state.delivered:
            state.delivered = True
            yield self.nic.processing(self.cost.nic_event_post)
            waiter = self._waiters.pop((group_id, epoch), None)
            if waiter is not None:
                waiter.succeed(state.result)
        if group.children:
            yield from self._send_down(group_id, coll, epoch)
        self._maybe_complete_epoch(coll, epoch)

    def _send_down(self, group_id: int, coll: _GroupColl,
                   epoch: int) -> Generator:
        state = coll.epochs[epoch]
        state.down_generation += 1
        generation = state.down_generation
        for child in coll.group.children:
            if child in state.down_acked:
                continue
            yield from self._send_control(
                child, group_id,
                {"coll": "down", "epoch": epoch, "op": state.op,
                 "value": state.result},
            )
        self.sim.schedule_callback(
            self.sim.now + self.cost.ack_timeout,
            lambda: self._down_timeout(group_id, epoch, generation),
        )

    def _down_timeout(self, group_id: int, epoch: int, generation: int) -> None:
        coll = self._state.get(group_id)
        state = coll.epochs.get(epoch) if coll else None
        if state is None or state.down_generation != generation:
            return
        if set(state.down_acked) >= set(coll.group.children):
            return
        self.down_resends += 1
        self.sim.process(
            self._send_down(group_id, coll, epoch),
            name=f"{self.nic.name}.coll_down_resend",
        )

    def _maybe_complete_epoch(self, coll: _GroupColl, epoch: int) -> None:
        state = coll.epochs.get(epoch)
        if state is None or not state.delivered:
            return
        if set(state.down_acked) >= set(coll.group.children):
            state.down_generation += 1  # defuse timers
            del coll.epochs[epoch]
            coll.completed = max(coll.completed, epoch)
            coll.finished_results[epoch] = state.result
            # Bound the cache: anything older than a few epochs can no
            # longer be asked about (children completed it to finish us).
            for old in [e for e in coll.finished_results if e < epoch - 32]:
                del coll.finished_results[old]

    def _send_control(self, dst: int | None, group_id: int,
                      info: dict) -> Generator:
        assert dst is not None
        yield self.nic.processing(self.cost.nic_ack_generation)
        pkt = make_packet(
            PacketType.CONTROL, self.nic.id, dst, self.nic.id,
            group=group_id,
            payload=8,
            info=dict(info),
        )
        self.nic.queue_tx(PacketDescriptor(pkt), TX_PRIO_ACK)
