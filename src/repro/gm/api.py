"""Host-side GM API: ports, sends, receives.

A :class:`GMPort` is a protected OS-bypass endpoint: only its owner may
operate on it (paper §2, "a user process may modify the NIC-memory used
by another process, which can lead to unpleasant scenarios" — GM prevents
that, and so do we).  All methods that consume host time are generators
meant to be driven from a host process: ``handle = yield from
port.send(dst, nbytes)``.
"""

from __future__ import annotations

from collections import deque

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator

from repro.errors import ProtectionError, TokenExhausted
from repro.gm.tokens import ReceiveToken, SendToken
from repro.nic.lanai import HostCommand
from repro.sim.events import SimEvent
from repro.sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gm.memory import RegisteredRegion
    from repro.gm.protocol import GMEngine

__all__ = ["GMPort", "SendHandle", "RecvCompletion", "SendCommand"]


@dataclass
class SendCommand(HostCommand):
    """Host → NIC: transmit the message described by ``token``."""

    token: SendToken | None = None


@dataclass
class SendHandle:
    """Returned by :meth:`GMPort.send`; ``done`` fires on full ack."""

    token: SendToken
    done: SimEvent
    posted_at: float = 0.0

    @property
    def completed_at(self) -> float:
        if not self.done.triggered:
            raise RuntimeError("send not yet complete")
        return self.done.value


@dataclass
class RecvCompletion:
    """A fully received message, as reported to the host."""

    src: int
    src_port: int
    size: int
    msg_id: int
    group: int | None = None
    received_at: float = 0.0
    info: dict[str, Any] = field(default_factory=dict)


class GMPort:
    """A GM communication endpoint on one NIC.

    The port's token pools are counts, and a token object is minted on
    first use.  Send tokens: a fixed pool of ``send_tokens_per_port``;
    a completed send's token goes on ``_free_send_tokens`` and is reused
    last-in, first-out, ahead of the ``_unminted_send_tokens`` not yet
    issued.  Receive tokens: the ``_preposted_recv_tokens`` loaned at
    set-up (:meth:`prepost_recv_tokens`) are taken first, then host
    reposts in the order they were posted.  A token's identity is never
    observable (``token_id`` only keys ``_completions``, and
    :meth:`SendToken.arm` resets every other field), so the counters
    read exactly as for pools built whole.
    """

    def __init__(self, engine: "GMEngine", port_num: int, owner: Any):
        self.engine = engine
        self.nic = engine.nic
        self.sim = engine.nic.sim
        self.cost = engine.cost
        self.port_num = port_num
        self.owner = owner
        self._free_send_tokens: list[SendToken] = []
        self._unminted_send_tokens = self.cost.send_tokens_per_port
        self._preposted_recv_tokens = 0
        # deque: host reposts are claimed FIFO, once per received
        # message, so list.pop(0) shifting would add up.
        self._recv_tokens: deque[ReceiveToken] = deque()
        self.event_queue: Store = Store(
            self.sim, name=f"port{engine.nic.id}.{port_num}.events"
        )
        #: completion events keyed by token_id, fired by the engine
        self._completions: dict[int, SendHandle] = {}
        self.sends_posted = 0
        self.sends_completed = 0
        self.messages_received = 0

    # -- protection -----------------------------------------------------------
    def _check_owner(self, caller: Any) -> None:
        if caller is not None and caller is not self.owner:
            raise ProtectionError(
                f"process {caller!r} attempted to use port "
                f"{self.nic.id}:{self.port_num} owned by {self.owner!r}"
            )

    # -- token pools (engine-facing) --------------------------------------------
    @property
    def free_send_tokens(self) -> int:
        return len(self._free_send_tokens) + self._unminted_send_tokens

    @property
    def free_recv_tokens(self) -> int:
        return self._preposted_recv_tokens + len(self._recv_tokens)

    def prepost_recv_tokens(self, count: int) -> None:
        """Set-up: loan the NIC *count* receive buffers at no host cost.

        Ports are provisioned this way when they are opened, before the
        host reposts any buffer: preposted tokens are claimed ahead of
        every host repost.  Each is minted when a message claims it.
        """
        self._preposted_recv_tokens += count

    def take_recv_token(self) -> ReceiveToken | None:
        """NIC side: claim a preposted receive buffer, if any."""
        if self._preposted_recv_tokens:
            self._preposted_recv_tokens -= 1
            return ReceiveToken(self.port_num)
        if not self._recv_tokens:
            return None
        return self._recv_tokens.popleft()

    def take_send_token(
        self,
        dst: int,
        dst_port: int,
        size: int,
        region: "RegisteredRegion | None" = None,
        info: Any = None,
    ) -> SendHandle:
        """Host side: claim and arm a send token, and register its handle.

        The one path for every send the host posts (unicast, multicast
        and multidestination).  Raises :class:`TokenExhausted` if the
        port has no free send tokens (GM's behaviour).  Pins *region*,
        if any; the returned handle's ``done`` fires on full ack.
        """
        if self._free_send_tokens:
            token = self._free_send_tokens.pop()
        elif self._unminted_send_tokens:
            self._unminted_send_tokens -= 1
            token = SendToken(self.port_num)
        else:
            raise TokenExhausted(
                f"port {self.nic.id}:{self.port_num} has no free send tokens"
            )
        token.arm(dst, dst_port, size, region)
        if info is not None:
            token.context["info"] = info
        if region is not None:
            region.pin()
        handle = SendHandle(
            token=token, done=self.sim.event(), posted_at=self.sim.now
        )
        self._completions[token.token_id] = handle
        self.sends_posted += 1
        return handle

    def return_recv_token(self, token: ReceiveToken) -> None:
        """NIC side: a transformed token's duties are over — it is consumed
        (the host buffer now holds the delivered message); nothing returns
        to the pool until the host reposts."""
        token.transformed = False

    def complete_send(self, token: SendToken) -> None:
        """NIC side: all packets of *token* acknowledged."""
        handle = self._completions.pop(token.token_id, None)
        self.sends_completed += 1
        self._free_send_tokens.append(token)
        if handle is not None:
            handle.done.succeed(self.sim.now)

    def deliver_event(self, completion: RecvCompletion) -> None:
        """NIC side: enqueue a receive event for the host."""
        self.messages_received += 1
        self.event_queue.put(completion)

    # -- host-facing operations ---------------------------------------------------
    def send(
        self,
        dst: int,
        size: int,
        dst_port: int = 0,
        region: "RegisteredRegion | None" = None,
        info: Any = None,
        caller: Any = None,
    ) -> Generator[SimEvent, Any, SendHandle]:
        """Post a unicast send.  Raises :class:`TokenExhausted` if the
        port has no free send tokens (GM's behaviour); callers that prefer
        to block can wait on completions and retry."""
        self._check_owner(caller)
        if size < 0:
            raise ValueError(f"negative send size {size}")
        handle = self.take_send_token(dst, dst_port, size, region, info)
        yield self.sim.timeout(self.cost.host_send_post)
        self.nic.post_command(
            SendCommand(port=self.port_num, token=handle.token)
        )
        return handle

    def provide_receive_buffer(
        self, count: int = 1, size: int | None = None, caller: Any = None
    ) -> Generator[SimEvent, Any, None]:
        """Prepost *count* receive buffers (receive tokens)."""
        self._check_owner(caller)
        if count < 1:
            raise ValueError("count must be >= 1")
        yield self.sim.timeout(self.cost.host_recv_post * count)
        for _ in range(count):
            self._recv_tokens.append(
                ReceiveToken(self.port_num, size=size or 0)
            )

    def receive(self, caller: Any = None) -> Generator[SimEvent, Any, RecvCompletion]:
        """Block until the next message arrives on this port."""
        self._check_owner(caller)
        completion = yield self.event_queue.get()
        yield self.sim.timeout(self.cost.host_event_dispatch)
        return completion

    def try_receive(self, caller: Any = None) -> RecvCompletion | None:
        """Non-blocking poll of the event queue (no host cost charged)."""
        self._check_owner(caller)
        if len(self.event_queue):
            ev = self.event_queue.get()
            assert ev.triggered
            return ev.value
        return None

    def __repr__(self) -> str:
        return (
            f"<GMPort {self.nic.id}:{self.port_num} "
            f"stok={self.free_send_tokens} rtok={self.free_recv_tokens}>"
        )
