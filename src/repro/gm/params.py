"""The cost model: every timing constant in the simulated stack.

All times are microseconds, all bandwidths bytes/µs.  The default preset
:meth:`GMCostModel.lanai9` is calibrated to the paper's testbed — 16
quad-SMP 700 MHz Pentium-III nodes, 66 MHz/64-bit PCI, Myrinet-2000 NICs
with 133 MHz LANai 9.1 processors, GM 2.0 alpha1 — so that the simulated
GM unicast half-round-trip for small messages lands near the ~7 µs the
hardware delivered, host overhead stays under 1 µs (paper §5), and the
LANai's per-request processing dominates small-message multisend exactly
as the paper's Figure 3 requires.

Calibration notes (see EXPERIMENTS.md for the resulting curves):

* ``wire_bandwidth`` 200 B/µs is Myrinet-2000's 2 Gb/s line rate minus
  per-packet gaps/route/CRC overhead — the payload rate GM measured.
* ``pci_bandwidth`` (host→NIC reads, 210 B/µs) sits just above the wire
  so the *wire* bottlenecks large sends on both schemes — that is what
  lets host-based multiple unicasts catch back up to the NIC multisend
  at 16 KB (Fig. 3b levels off around 1).  ``pci_write_bandwidth``
  (NIC→host, 155 B/µs) is slower, as on real chipsets of the era; the
  double PCI crossing is what makes host-based *forwarding* expensive.
* The LANai costs are instruction-path-length estimates at 7.5 ns/insn:
  a host command fetch plus send-token translation is a few hundred
  instructions (~3 µs), while a descriptor-callback header rewrite is a
  few dozen (~0.4 µs) — that gap *is* the multisend win.  Forwarding
  also stages each packet through SRAM on the NIC's copy engine at
  ``nic_sram_copy_bandwidth``; the copies pipeline across the packets of
  a long message but a single-packet 2-4 KB message eats the full copy
  latency (the Fig. 5b dip).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.errors import ConfigError

__all__ = ["GMCostModel"]

#: The cost model's time constants, µs.  Each may be zero, never
#: negative: a negative cost would end a hold before it starts and move
#: the simulated clock backwards.
_TIMES = (
    "link_latency", "switch_hop_latency", "dma_startup",
    "host_send_post", "host_recv_post", "host_event_dispatch",
    "host_mpi_overhead", "host_memcpy_startup", "host_register_cost",
    "nic_command_fetch", "nic_send_token_processing", "nic_per_packet_send",
    "nic_recv_processing", "nic_ack_processing", "nic_ack_generation",
    "nic_header_rewrite", "nic_group_lookup", "nic_forward_processing",
    "nic_event_post", "nic_reduce_combine",
)


@dataclass(frozen=True)
class GMCostModel:
    """Timing and sizing constants for the whole stack (µs, bytes, B/µs)."""

    # -- wire ---------------------------------------------------------------
    #: Effective link data rate in bytes/µs.  Myrinet-2000's line rate
    #: is 2 Gb/s = 250 B/µs; per-packet gaps, route bytes and CRC stalls
    #: put GM's measured payload rate near 200 B/µs, which is what the
    #: protocols (and the paper's latency curves) actually see.
    wire_bandwidth: float = 200.0
    #: Cable propagation per link, µs.
    link_latency: float = 0.1
    #: Crossbar head-routing delay per switch, µs.
    switch_hop_latency: float = 0.3
    #: Maximum packet payload, bytes (GM: 4096).
    mtu: int = 4096

    # -- PCI / DMA ------------------------------------------------------------
    #: Effective host→NIC DMA rate over PCI (PCI reads, the send path),
    #: bytes/µs.  66 MHz/64-bit PCI bursts at 528 MB/s but GM-era
    #: effective rates sat near the wire rate; keeping this slightly
    #: above the wire makes the wire the large-message bottleneck for
    #: sends, so host-based multiple unicasts catch the multisend at
    #: 16 KB (Fig. 3b).
    pci_bandwidth: float = 210.0
    #: Effective NIC→host DMA rate (PCI writes, the receive path),
    #: bytes/µs.  Slower than reads on this era's chipsets; it penalizes
    #: the *host-based* forwarding path (which must land the message in
    #: host memory before resending) but not NIC-based forwarding, whose
    #: host copy is off the critical path (Fig. 5b's 16 KB gap).
    pci_write_bandwidth: float = 155.0
    #: Fixed cost to start one DMA transaction, µs.
    dma_startup: float = 0.6

    # -- host ---------------------------------------------------------------
    #: Host cost to post a send event to the NIC (PIO write), µs.
    host_send_post: float = 0.3
    #: Host cost to post a receive buffer, µs.
    host_recv_post: float = 0.2
    #: Host cost to pick a completion event off the event queue, µs.
    host_event_dispatch: float = 0.5
    #: MPI-layer bookkeeping per collective call on each host, µs
    #: (MPICH request setup, communicator checks, progress-engine entry).
    host_mpi_overhead: float = 4.0
    #: Host memcpy rate (eager-protocol copy to the user buffer), B/µs.
    host_memcpy_bandwidth: float = 700.0
    #: Fixed memcpy startup, µs.
    host_memcpy_startup: float = 0.3
    #: Host cost to register one memory region with the NIC, µs.
    host_register_cost: float = 2.0

    # -- LANai processing (133 MHz processor) --------------------------------
    #: Fetch and decode one host command from the event queue — paid per
    #: host request, so k host-based unicasts pay it k times while one
    #: multisend pays it once.
    nic_command_fetch: float = 1.0
    #: Translate a host send event into a send token and set up the first
    #: DMA — the *per-request* cost host-based multiple unicasts repeat.
    nic_send_token_processing: float = 2.0
    #: Per-packet send setup (sequence number, send record, queue), µs.
    nic_per_packet_send: float = 0.5
    #: Per received data packet (CRC check, seq check, token match), µs.
    nic_recv_processing: float = 1.0
    #: Per received ACK (record teardown), µs.
    nic_ack_processing: float = 0.35
    #: Build and queue an ACK packet, µs.
    nic_ack_generation: float = 0.3
    #: Descriptor-callback header rewrite to retarget a replica, µs —
    #: the *per-replica* cost of the NIC-based multisend.
    nic_header_rewrite: float = 0.4
    #: Multicast group-table lookup when forwarding, µs.
    nic_group_lookup: float = 0.3
    #: Fixed per-packet forwarding work at an intermediate NIC (receive-
    #: token transformation, per-child send-record setup, re-queue), µs.
    nic_forward_processing: float = 1.5
    #: LANai-speed SRAM staging of a forwarded packet between the receive
    #: and transmit rings, bytes/µs.  This is what keeps the 133 MHz NIC
    #: from forwarding large packets at wire speed and produces the
    #: paper's modest improvement for single-packet 2-4 KB messages.
    nic_sram_copy_bandwidth: float = 190.0
    #: DMA a completion-event record up to the host, µs (small, fixed).
    nic_event_post: float = 0.4
    #: Combine one child's contribution in a NIC-based reduction, µs
    #: (extension: the paper's future-work collectives).
    nic_reduce_combine: float = 0.5
    #: The paper's *third* multisend alternative (§5): rewrite the next
    #: replica's header while the transmit DMA engine is still draining
    #: the current one, hiding ``nic_header_rewrite`` entirely.  The
    #: paper implements alternative two (descriptor callbacks) and
    #: leaves this "for later research"; enable it for the ablation.
    multisend_inline_rewrite: bool = False

    # -- reliability ----------------------------------------------------------
    #: Retransmission timeout, µs.  (Real GM used ~50 ms; scaled down so
    #: loss tests converge quickly without affecting loss-free runs.)
    ack_timeout: float = 400.0
    #: Give up after this many retransmissions of one packet.
    max_retransmits: int = 50

    # -- resources -------------------------------------------------------------
    #: Send tokens per port (host-side send descriptors).
    send_tokens_per_port: int = 64
    #: Receive tokens per port (preposted host receive buffers).
    recv_tokens_per_port: int = 64
    #: NIC SRAM send packet buffers (MTU-sized).
    nic_send_buffers: int = 16
    #: NIC SRAM receive packet buffers (MTU-sized).
    nic_recv_buffers: int = 16

    # -- MPI (MPICH-GM 1.2.4..8a constants) -----------------------------------
    #: Largest eager-mode message, bytes (paper §6.2: 16,287).
    mpi_eager_max: int = 16287
    #: Rendezvous threshold, bytes (paper §5: "larger than 16K").
    mpi_rendezvous_threshold: int = 16384

    def __post_init__(self) -> None:
        for attr in (
            "wire_bandwidth",
            "pci_bandwidth",
            "pci_write_bandwidth",
            "host_memcpy_bandwidth",
            "nic_sram_copy_bandwidth",
        ):
            if getattr(self, attr) <= 0:
                raise ConfigError(f"{attr} must be positive")
        for attr in _TIMES:
            if getattr(self, attr) < 0:
                raise ConfigError(
                    f"{attr} must be >= 0, got {getattr(self, attr)!r}"
                )
        for attr in ("mtu", "send_tokens_per_port", "recv_tokens_per_port",
                     "nic_send_buffers", "nic_recv_buffers"):
            if getattr(self, attr) < 1:
                raise ConfigError(f"{attr} must be >= 1")
        if self.ack_timeout <= 0:
            raise ConfigError("ack_timeout must be positive")

    # -- presets ---------------------------------------------------------------
    @classmethod
    def lanai9(cls, **overrides: Any) -> "GMCostModel":
        """The paper's testbed (default values), with optional overrides."""
        return cls(**overrides)

    @classmethod
    def fast_host(cls, **overrides: Any) -> "GMCostModel":
        """A hypothetical faster host (halved host costs) — for ablations."""
        base = dict(
            host_send_post=0.15,
            host_recv_post=0.1,
            host_event_dispatch=0.25,
            host_mpi_overhead=0.4,
            host_memcpy_bandwidth=1400.0,
        )
        base.update(overrides)
        return cls(**base)

    @classmethod
    def slow_nic(cls, **overrides: Any) -> "GMCostModel":
        """A hypothetical slower LANai (doubled NIC costs) — for ablations."""
        base = dict(
            nic_send_token_processing=4.0,
            nic_per_packet_send=1.0,
            nic_recv_processing=2.0,
            nic_ack_processing=0.7,
            nic_ack_generation=0.6,
            nic_header_rewrite=0.8,
            nic_group_lookup=0.6,
            nic_event_post=0.8,
        )
        base.update(overrides)
        return cls(**base)

    def with_overrides(self, **overrides: Any) -> "GMCostModel":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)

    # -- derived quantities -------------------------------------------------------
    def wire_time(self, wire_size: int) -> float:
        """Serialization time of *wire_size* bytes on one link."""
        return wire_size / self.wire_bandwidth

    def dma_time(self, nbytes: int) -> float:
        """One host→NIC DMA transaction of *nbytes* (PCI read)."""
        return self.dma_startup + nbytes / self.pci_bandwidth

    def dma_write_time(self, nbytes: int) -> float:
        """One NIC→host DMA transaction of *nbytes* (PCI write)."""
        return self.dma_startup + nbytes / self.pci_write_bandwidth

    def memcpy_time(self, nbytes: int) -> float:
        """Host memcpy of *nbytes*."""
        return self.host_memcpy_startup + nbytes / self.host_memcpy_bandwidth
