"""The NIC-assisted multidestination scheme (Buntinas et al., CANPC 2000).

The comparison baseline from the paper's Fig. 1: the spanning tree is
carried **with each message** (no preposted group table), the NIC saves
the repeated per-request processing by sending one *multidestination
message* to a list of destinations, but forwarding at intermediate nodes
**requires host involvement** — the host receives the message, reads its
subtree from the header, and re-initiates a multidestination send.

Reliability rides on the ordinary GM unicast machinery: every replica is
a normal DATA packet on its own per-destination connection, with its own
send record, so ACK/timeout/Go-back-N just work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator

from repro.gm.api import SendHandle
from repro.gm.protocol import SendRecord
from repro.gm.tokens import SendToken
from repro.net.packet import GM_HEADER_BYTES, Packet, PacketType, make_packet, split_message
from repro.nic.descriptor import PacketDescriptor
from repro.nic.lanai import HostCommand, TX_PRIO_DATA

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster import Cluster
    from repro.host.node import Node
    from repro.trees.base import SpanningTree

__all__ = [
    "MultidestCommand",
    "NicAssistedEngine",
    "nic_assisted_multisend",
    "nic_assisted_multicast",
]


@dataclass
class MultidestCommand(HostCommand):
    """Host → NIC: send one message to an explicit destination list."""

    token: SendToken | None = None
    destinations: tuple[int, ...] = ()


class NicAssistedEngine:
    """NIC-side handler for multidestination sends.

    Reuses the GM engine's connections and records — a replica to
    destination *d* is indistinguishable from a unicast to *d* once on
    the wire, which is exactly how the original scheme worked.
    """

    def __init__(self, node: "Node"):
        self.nic = node.nic
        self.gm = node.gm
        self.sim = node.sim
        self.cost = node.cost
        self.nic.command_handlers[MultidestCommand] = self._handle_multidest

    def _handle_multidest(self, cmd: MultidestCommand) -> Generator:
        token = cmd.token
        assert token is not None
        # One token translation for the whole multidestination message.
        yield self.nic.processing(self.cost.nic_send_token_processing)
        chunks = split_message(token.size, self.cost.mtu)
        dests = cmd.destinations
        for idx, payload in enumerate(chunks):
            jobs = []
            for dest in dests:
                conn = self.gm.send_conn(token.port_num, dest, token.dst_port)
                record = SendRecord(
                    seq=conn.alloc_seq(),
                    token=token,
                    chunk=idx,
                    nchunks=len(chunks),
                    payload=payload,
                    msg_size=token.size,
                    dst=dest,
                    dst_port=token.dst_port,
                    local_port=token.port_num,
                )
                conn.window.add(record)
                token.unacked_packets += 1
                jobs.append((conn, record))
            yield self.nic.processing(self.cost.nic_per_packet_send)
            self.gm.stage(
                lambda jobs=jobs, payload=payload, token=token, idx=idx: (
                    self._stage_chunk(jobs, payload, token, idx)
                )
            )
        token.all_packets_sent = True
        self.gm._maybe_complete(token)

    def _stage_chunk(self, jobs, payload: int, token: SendToken, chunk_idx: int):
        """DMA the chunk once, then chain replicas via the descriptor
        callback — same buffer, rewritten header per destination."""
        buf = yield self.nic.send_buffers.acquire()
        yield self.nic.dma(payload + GM_HEADER_BYTES)
        (conn, record), rest = jobs[0], jobs[1:]
        pkt = self._packet_for(record, token, chunk_idx)
        record.sent_at = self.sim.now
        conn.timer.arm(record)
        desc = PacketDescriptor(
            pkt,
            buffer=buf,
            on_transmit=self._replica_callback,
            context={"rest": list(rest), "token": token, "chunk": chunk_idx},
        )
        self.nic.queue_tx(desc, TX_PRIO_DATA)

    def _packet_for(self, record: SendRecord, token: SendToken, chunk_idx: int) -> Packet:
        pkt = make_packet(
            PacketType.DATA, self.nic.id, record.dst, self.nic.id,
            port=record.dst_port,
            from_port=record.local_port,
            seq=record.seq,
            msg_id=token.msg_id,
            chunk=record.chunk,
            nchunks=record.nchunks,
            payload=record.payload,
            msg_size=record.msg_size,
        )
        if chunk_idx == 0 and token.context.get("info") is not None:
            pkt.header.info["app"] = token.context["info"]
        return pkt

    def _replica_callback(self, desc: PacketDescriptor):
        rest = desc.context["rest"]
        if not rest:
            if desc.buffer is not None:
                desc.buffer.release()
            return None
        return self._emit_replica(desc, rest)

    def _emit_replica(self, desc: PacketDescriptor, rest) -> Generator:
        yield self.nic.processing(self.cost.nic_header_rewrite)
        conn, record = rest.pop(0)
        token = desc.context["token"]
        desc.packet = self._packet_for(record, token, desc.context["chunk"])
        record.sent_at = self.sim.now
        conn.timer.arm(record)
        self.nic.queue_tx(desc, TX_PRIO_DATA)


def nic_assisted_multisend(
    node: "Node",
    port,
    destinations: tuple[int, ...],
    size: int,
    info: Any = None,
    caller: Any = None,
) -> Generator[Any, Any, SendHandle]:
    """Host call: one multidestination send (costs one send token)."""
    port._check_owner(caller)
    handle = port.take_send_token(-1, port.port_num, size, info=info)
    yield node.sim.timeout(node.cost.host_send_post)
    node.nic.post_command(
        MultidestCommand(
            port=port.port_num,
            token=handle.token,
            destinations=tuple(destinations),
        )
    )
    return handle


def _subtrees(tree: "SpanningTree") -> dict[int, dict]:
    """Serializable child-map for each node (rides in message info)."""
    return {
        node: {c: tree.children_of(c) for c in tree.subtree_nodes(node)}
        for node in tree.nodes
    }


def nic_assisted_multicast(
    cluster: "Cluster", tree: "SpanningTree", size: int
) -> dict[str, Any]:
    """One-shot multicast with the NIC-assisted scheme.

    The engines are created on demand (one per node, idempotent per
    cluster) since this baseline is not part of the default stack.
    """
    for node in cluster.nodes:
        if not hasattr(node, "nic_assisted"):
            node.nic_assisted = NicAssistedEngine(node)

    delivered: dict[int, float] = {}

    def root_prog() -> Generator:
        node = cluster.node(tree.root)
        kids = tree.children_of(tree.root)
        if not kids:
            return
        handle = yield from nic_assisted_multisend(
            node,
            cluster.port(tree.root),
            kids,
            size,
            info={"children": {c: tree.children_of(c) for c in tree.nodes}},
        )
        yield handle.done

    def member_prog(node_id: int) -> Generator:
        node = cluster.node(node_id)
        port = cluster.port(node_id)
        completion = yield from port.receive()
        delivered[node_id] = cluster.sim.now
        children = completion.info["children"].get(node_id, ())
        if children:
            handle = yield from nic_assisted_multisend(
                node, port, tuple(children), size,
                info=completion.info,
            )
            yield handle.done

    procs = [cluster.spawn(root_prog(), name="na_root")]
    for node_id in tree.nodes:
        if node_id != tree.root:
            procs.append(
                cluster.spawn(member_prog(node_id), name=f"na[{node_id}]")
            )
    cluster.run(until=cluster.sim.all_of(procs))
    return {"delivered": delivered}
