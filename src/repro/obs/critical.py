"""Critical-path extraction over flight-recorder events.

The paper's Fig. 2 argument is a latency decomposition: a multicast's
delivery time splits into host, LANai/DMA, and wire segments, and
NIC-based forwarding wins because the per-hop host segments disappear.
This module automates that decomposition from a recorded trace: for each
destination of a traced root message it walks the delivering packet
chain *backwards* — host delivery, fabric delivery, injection at the
parent, the parent's own fabric delivery, and so on up to the root post
— and attributes every interval in ``[t_post, t_delivered]`` to one of
six segments:

``host``
    Root-side dwell: post -> first injection (host overhead + DMA +
    serialization of earlier chunks).
``nic``
    Intermediate-NIC dwell (forward processing, SRAM copy, TX service)
    plus the receive-side NIC/RDMA tail at the destination.
``wire``
    Link traversal + switch hop latency (fabric transit minus queueing).
``queue``
    Head-of-line blocking waiting for link claims.
``retransmit_wait``
    Gap between the first transmission of the delivering chunk toward a
    hop and the (re)transmission that actually got through.
``recovery_gap``
    Dwell before a recovery *replay* — the time a failure-affected
    subtree sat dark until the healed tree replayed the message.

The walk is telescoping, so the six segments **sum exactly** to the
measured delivery time (the acceptance tests reconcile against the
harness's per-destination deliveries to < 1µs).  ``recovery_gap`` is
non-zero only for destinations whose delivering chain contains a replay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.obs.flight import (
    EV_CHUNK,
    EV_EXTRA,
    EV_NODE,
    EV_STAGE,
    EV_TRACE,
    EV_UID,
    EV_WHEN,
    FlightEvent,
)

__all__ = [
    "SEGMENTS",
    "DestinationPath",
    "TraceCriticalPath",
    "critical_paths",
    "render_critical_path",
    "critical_path_to_dict",
]

#: Segment keys, in render order.
SEGMENTS = ("host", "nic", "wire", "queue", "retransmit_wait",
            "recovery_gap")


@dataclass
class DestinationPath:
    """One destination's delivery, decomposed."""

    dest: int
    delivery_us: float  #: host delivery time relative to the root post
    delivered_at: float  #: absolute host delivery time
    segments: dict[str, float] = field(default_factory=dict)
    hops: int = 0  #: NIC->NIC fabric traversals on the delivering chain
    retransmits: int = 0  #: delivering-chain transmissions with attempt > 0
    replayed: bool = False  #: chain contains a recovery replay
    exact: bool = True  #: False when the chain walk hit a gap (ring loss)

    @property
    def segment_sum(self) -> float:
        # Correctly rounded, so the sum is the same on every Python
        # (3.12's builtin ``sum`` compensates, 3.10's and 3.11's do not).
        return math.fsum(self.segments.values())


@dataclass
class TraceCriticalPath:
    """The per-destination breakdown of one traced root message."""

    trace_id: int
    origin: int
    posted_at: float
    kind: str = "?"
    size: int = 0
    destinations: dict[int, DestinationPath] = field(default_factory=dict)

    @property
    def critical_destination(self) -> int | None:
        """The destination whose delivery completed the broadcast."""
        if not self.destinations:
            return None
        return max(
            self.destinations,
            key=lambda d: self.destinations[d].delivery_us,
        )


def critical_paths(
    events: Iterable[FlightEvent],
    trace_ids: Iterable[int] | None = None,
) -> list[TraceCriticalPath]:
    """Per-destination critical paths for every (or the given) trace."""
    by_trace: dict[int, list[FlightEvent]] = {}
    for ev in events:
        tid = ev[EV_TRACE]
        if tid >= 0:
            by_trace.setdefault(tid, []).append(ev)
    wanted = list(by_trace) if trace_ids is None else [
        t for t in trace_ids if t in by_trace
    ]
    return [_analyze_trace(tid, by_trace[tid]) for tid in wanted]


def _analyze_trace(
    tid: int, events: list[FlightEvent]
) -> TraceCriticalPath:
    post = next((e for e in events if e[EV_STAGE] == "post"), None)
    if post is not None:
        extra = post[EV_EXTRA] or {}
        cp = TraceCriticalPath(
            trace_id=tid,
            origin=post[EV_NODE],
            posted_at=post[EV_WHEN],
            kind=extra.get("kind", "?"),
            size=extra.get("size", 0),
        )
    else:
        # The post fell out of the ring; anchor at the earliest event.
        first = min(events, key=lambda e: e[EV_WHEN])
        cp = TraceCriticalPath(
            trace_id=tid, origin=first[EV_NODE],
            posted_at=first[EV_WHEN],
        )
    t0, origin = cp.posted_at, cp.origin

    # -- indexes -----------------------------------------------------------
    #: node -> [(t, uid, chunk)] fabric deliveries, in time order
    delivers_at: dict[int, list[tuple[float, int, int]]] = {}
    #: uid -> (t, node, chunk)
    deliver_by_uid: dict[int, tuple[float, int, int]] = {}
    #: uid -> (t, src node, chunk, traversal dst)
    inject_by_uid: dict[int, tuple[float, int, int, int]] = {}
    #: uid -> accumulated link-claim wait
    queue_wait: dict[int, float] = {}
    #: uid -> (attempt, replay)
    txmeta: dict[int, tuple[int, bool]] = {}
    #: (node, chunk, dst) -> first injection time
    first_inject: dict[tuple[int, int, int], float] = {}
    #: node -> (t, uid) of the host delivery
    host_deliver: dict[int, tuple[float, int]] = {}

    for ev in events:
        stage = ev[EV_STAGE]
        if stage == "deliver":
            entry = (ev[EV_WHEN], ev[EV_UID], ev[EV_CHUNK])
            delivers_at.setdefault(ev[EV_NODE], []).append(entry)
            deliver_by_uid[ev[EV_UID]] = (
                ev[EV_WHEN], ev[EV_NODE], ev[EV_CHUNK]
            )
        elif stage == "inject":
            extra = ev[EV_EXTRA] or {}
            dst = extra.get("dst", -1)
            inject_by_uid[ev[EV_UID]] = (
                ev[EV_WHEN], ev[EV_NODE], ev[EV_CHUNK], dst
            )
            key = (ev[EV_NODE], ev[EV_CHUNK], dst)
            if key not in first_inject or ev[EV_WHEN] < first_inject[key]:
                first_inject[key] = ev[EV_WHEN]
        elif stage == "queue":
            extra = ev[EV_EXTRA] or {}
            queue_wait[ev[EV_UID]] = (
                queue_wait.get(ev[EV_UID], 0.0) + extra.get("wait", 0.0)
            )
        elif stage == "tx":
            extra = ev[EV_EXTRA] or {}
            txmeta[ev[EV_UID]] = (
                extra.get("attempt", 0), bool(extra.get("replay"))
            )
        elif stage == "host_deliver":
            prev = host_deliver.get(ev[EV_NODE])
            if prev is None or ev[EV_WHEN] > prev[0]:
                host_deliver[ev[EV_NODE]] = (ev[EV_WHEN], ev[EV_UID])

    for lst in delivers_at.values():
        lst.sort()

    def latest_deliver(
        node: int, before: float, chunk: int | None = None
    ) -> tuple[float, int, int] | None:
        best = None
        for entry in delivers_at.get(node, ()):
            if entry[0] > before:
                break
            if chunk is None or entry[2] == chunk:
                best = entry
        return best

    # -- per-destination backward walk -------------------------------------
    for dest, (td, hd_uid) in sorted(host_deliver.items()):
        if dest == origin:
            continue
        path = DestinationPath(
            dest=dest,
            delivery_us=td - t0,
            delivered_at=td,
            segments=dict.fromkeys(SEGMENTS, 0.0),
        )
        seg = path.segments
        dlv = None
        if hd_uid >= 0:
            got = deliver_by_uid.get(hd_uid)
            if got is not None and got[1] == dest and got[0] <= td:
                dlv = (got[0], hd_uid, got[2])
        if dlv is None:
            dlv = latest_deliver(dest, td)
        if dlv is None:
            # No fabric record (ring loss): lump everything into nic.
            seg["nic"] += td - t0
            path.exact = False
            cp.destinations[dest] = path
            continue
        seg["nic"] += td - dlv[0]
        while True:
            t_dlv, uid, chunk = dlv
            inj = inject_by_uid.get(uid)
            if inj is None:
                seg["wire"] += t_dlv - t0
                path.exact = False
                break
            ti, pnode, _ichunk, dst = inj
            w = queue_wait.get(uid, 0.0)
            seg["queue"] += w
            seg["wire"] += t_dlv - ti - w
            path.hops += 1
            attempt, replay = txmeta.get(uid, (0, False))
            if replay:
                path.replayed = True
            if attempt > 0:
                path.retransmits += 1
            if pnode == origin:
                arrival_t, base, arr = t0, "host", None
            else:
                arr = latest_deliver(pnode, ti, chunk)
                if arr is None:
                    arrival_t, base = t0, "nic"
                    path.exact = False
                else:
                    arrival_t, base = arr[0], "nic"
            dwell = ti - arrival_t
            if replay:
                seg["recovery_gap"] += dwell
            elif attempt > 0:
                tfirst = first_inject.get((pnode, chunk, dst), ti)
                tfirst = max(tfirst, arrival_t)
                seg[base] += tfirst - arrival_t
                seg["retransmit_wait"] += ti - tfirst
            else:
                seg[base] += dwell
            if pnode == origin or arr is None:
                break
            dlv = arr
        cp.destinations[dest] = path
    return cp


def render_critical_path(cp: TraceCriticalPath) -> str:
    """The Fig. 2 decomposition table for one traced message."""
    from repro.experiments.report import render_table

    head = [
        f"## critical path: trace {cp.trace_id} "
        f"({cp.kind}, {cp.size}B from node {cp.origin}, "
        f"posted at {cp.posted_at:.2f}us)",
        "",
    ]
    headers = ["dest", "delivery us", "host", "nic", "wire", "queue",
               "rexmit wait", "recovery gap", "hops", "chain"]
    rows = []
    crit = cp.critical_destination
    for dest, p in sorted(cp.destinations.items()):
        chain = []
        if p.retransmits:
            chain.append(f"{p.retransmits}rt")
        if p.replayed:
            chain.append("replay")
        if not p.exact:
            chain.append("~")
        marker = " *" if dest == crit else ""
        rows.append([
            f"{dest}{marker}",
            f"{p.delivery_us:.2f}",
            f"{p.segments['host']:.2f}",
            f"{p.segments['nic']:.2f}",
            f"{p.segments['wire']:.2f}",
            f"{p.segments['queue']:.2f}",
            f"{p.segments['retransmit_wait']:.2f}",
            f"{p.segments['recovery_gap']:.2f}",
            str(p.hops),
            "+".join(chain) or "-",
        ])
    out = head + [render_table(headers, rows)]
    if crit is not None:
        p = cp.destinations[crit]
        shares = ", ".join(
            f"{name}={p.segments[name]:.2f}us"
            for name in SEGMENTS if p.segments[name] > 0.0
        )
        out += ["", f"critical destination {crit}: "
                    f"{p.delivery_us:.2f}us = {shares}"]
    return "\n".join(out)


def critical_path_to_dict(cp: TraceCriticalPath) -> dict[str, Any]:
    """JSON-ready form of one trace's breakdown."""
    return {
        "trace_id": cp.trace_id,
        "origin": cp.origin,
        "posted_at": cp.posted_at,
        "kind": cp.kind,
        "size": cp.size,
        "critical_destination": cp.critical_destination,
        "destinations": {
            str(dest): {
                "delivery_us": p.delivery_us,
                "delivered_at": p.delivered_at,
                "segments": dict(p.segments),
                "segment_sum": p.segment_sum,
                "hops": p.hops,
                "retransmits": p.retransmits,
                "replayed": p.replayed,
                "exact": p.exact,
            }
            for dest, p in sorted(cp.destinations.items())
        },
    }
