"""The FM/MC baseline: end-to-end credits with a central credit manager.

"FM/MC provides an end-to-end flow control with host-level credits.  A
centralized credit manager is used to recycle multicast credits, which
does not scale" (paper §2).

The model captures the scaling defect: every multicast sender must
obtain credits from one manager node over the real simulated network
(request/grant unicasts through GM), and credits recycle only after
receivers consume the data and their hosts return them to the manager.
Aggregate throughput therefore saturates at the manager's service rate,
however many senders there are — the bottleneck the paper's
decentralized ack scheme avoids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator

from repro.errors import CreditError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster import Cluster

__all__ = [
    "FMMCCreditManager",
    "control_port",
    "fmmc_sender_program",
    "fmmc_consumer_program",
]

#: GM port reserved for FM/MC credit-control traffic, so that grant
#: messages are not consumed by processes draining multicast data.
CONTROL_PORT = 1


def control_port(cluster: "Cluster", node_id: int):
    """The node's credit-control port (created and provisioned lazily)."""
    node = cluster.node(node_id)
    port = node.gm.ports.get(CONTROL_PORT)
    if port is None:
        port = node.open_port(CONTROL_PORT)
        port.prepost_recv_tokens(cluster.config.prepost_recv_tokens)
    return port


@dataclass
class FMMCCreditManager:
    """The centralized credit manager, living on one node's host.

    Credits are modelled as a counter guarded by the manager's host
    process; requests and returns are GM unicasts carrying ``info``
    commands.  ``service_time`` is the host cost to handle one request
    (bookkeeping + reply post), which bounds system-wide multicast
    throughput at ``credits_per_grant / service_time``.
    """

    cluster: "Cluster"
    node_id: int = 0
    total_credits: int = 32
    credits_per_grant: int = 4
    service_time: float = 2.0
    port_num: int = 0

    available: int = field(init=False)
    pending: list[int] = field(init=False, default_factory=list)
    grants: int = field(init=False, default=0)
    max_queue: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.credits_per_grant > self.total_credits:
            raise CreditError("grant size exceeds credit pool")
        self.available = self.total_credits

    def program(self, n_requests: int) -> Generator:
        """Manager host process: serve *n_requests* grant requests."""
        port = control_port(self.cluster, self.node_id)
        served = 0
        while served < n_requests:
            completion = yield from port.receive()
            command = completion.info.get("fmmc")
            if command == "return":
                self.available += completion.info["count"]
                continue
            assert command == "request", command
            requester = completion.src
            self.pending.append(requester)
            self.max_queue = max(self.max_queue, len(self.pending))
            # Serve strictly in order; wait for credits to be recycled.
            while self.pending:
                if self.available < self.credits_per_grant:
                    completion = yield from port.receive()
                    if completion.info.get("fmmc") == "return":
                        self.available += completion.info["count"]
                    else:
                        self.pending.append(completion.src)
                        self.max_queue = max(
                            self.max_queue, len(self.pending)
                        )
                    continue
                nxt = self.pending.pop(0)
                self.available -= self.credits_per_grant
                yield from self.cluster.node(self.node_id).host.compute(
                    self.service_time
                )
                handle = yield from port.send(
                    nxt, 16, dst_port=CONTROL_PORT,
                    info={"fmmc": "grant",
                          "count": self.credits_per_grant},
                )
                del handle
                self.grants += 1
                served += 1
                if served >= n_requests:
                    break
        # Drain outstanding credit returns so the pool is whole again.
        while self.available < self.total_credits:
            completion = yield from port.receive()
            assert completion.info.get("fmmc") == "return"
            self.available += completion.info["count"]


def fmmc_sender_program(
    manager: FMMCCreditManager,
    sender: int,
    group_id: int,
    size: int,
    rounds: int,
    sent_log: list[float],
) -> Generator:
    """A multicast root under FM/MC rules: request credits, then send.

    The actual data movement reuses the NIC-based multicast machinery —
    FM/MC forwarded on the NIC too; its defect is the credit plumbing.
    """
    from repro.mcast.manager import nic_based_multicast

    cluster = manager.cluster
    port = control_port(cluster, sender)
    for _ in range(rounds):
        handle = yield from port.send(
            manager.node_id, 16, dst_port=CONTROL_PORT,
            info={"fmmc": "request"},
        )
        del handle
        grant = yield from port.receive()
        if grant.info.get("fmmc") != "grant":
            raise CreditError(f"sender {sender} got {grant.info}")
        send_handle = yield from nic_based_multicast(
            cluster, group_id, size, sender
        )
        yield send_handle.done
        sent_log.append(cluster.sim.now)
        # Return the credits (receivers consumed the data; their returns
        # are aggregated through the root here for model simplicity).
        handle = yield from port.send(
            manager.node_id,
            16,
            dst_port=CONTROL_PORT,
            info={"fmmc": "return", "count": manager.credits_per_grant},
        )
        del handle


def fmmc_consumer_program(
    cluster: "Cluster", node_id: int, expected: int
) -> Generator:
    """A multicast destination: drain *expected* messages."""
    port = cluster.port(node_id)
    for _ in range(expected):
        yield from port.receive()
