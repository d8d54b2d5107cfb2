"""Topology failure lifecycle: links and switches that die and recover.

The packet-loss machinery (:mod:`repro.net.fault`) models *bit* errors —
individual CRC drops the ACK/timeout machinery recovers.  This module is
its topology-level generalization: whole cables and switches go down and
come back up mid-run.  A :class:`FailureSpec` declares the schedule
(explicit events, or a seeded MTBF draw); a :class:`FailureInjector`
applies each transition to the live :class:`~repro.net.topology.Topology`
(bumping ``Topology.version`` so every route cache invalidates) and
notifies subscribers at *detection* time — event time plus ``detect_us``
— never omnisciently at the instant of the fault.  Higher layers
(multicast recovery, scenario harnesses) therefore react exactly as a
real GM control program would: after the fabric has already been eating
packets for a little while.

Determinism: the schedule is materialized eagerly at injector
construction from the simulator's named RNG stream (``sim.rng(stream)``,
derived from the cluster seed), so a replay of the same spec and seed
applies the identical transitions at the identical instants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.topology import Topology
    from repro.sim.engine import Simulator

__all__ = [
    "FAILURE_ACTIONS",
    "FAILURE_KINDS",
    "FailureEvent",
    "FailureInjector",
    "FailureSpec",
    "nic_link_target",
]

#: Failure kinds a declarative :class:`FailureSpec` can name.
FAILURE_KINDS = ("none", "scheduled", "random")

#: Transitions an event can apply.  Link targets are indices into the
#: deterministic :meth:`Topology.cables` list; switch targets are switch
#: ids.
FAILURE_ACTIONS = ("link_down", "link_up", "switch_down", "switch_up")

#: Target populations the random (MTBF) mode draws from.
FAILURE_TARGETS = ("nic_links", "links", "switches")


@dataclass(frozen=True)
class FailureEvent:
    """One scheduled transition: at ``time_us``, apply ``action`` to
    ``target``."""

    time_us: float
    action: str
    target: int

    def __post_init__(self) -> None:
        if self.time_us < 0:
            raise ConfigError(
                f"failure event time must be >= 0, got {self.time_us}"
            )
        if self.action not in FAILURE_ACTIONS:
            raise ConfigError(
                f"unknown failure action {self.action!r}; "
                f"pick one of {FAILURE_ACTIONS}"
            )
        if self.target < 0:
            raise ConfigError(f"failure target must be >= 0, got {self.target}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "time_us": self.time_us,
            "action": self.action,
            "target": self.target,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FailureEvent":
        if not isinstance(data, dict):
            raise ConfigError(f"failure event must be an object, got {data!r}")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(
                f"unknown failure event keys: {', '.join(sorted(unknown))}"
            )
        return cls(**data)


@dataclass(frozen=True)
class FailureSpec:
    """Declarative, JSON-serializable failure schedule.

    ``scheduled`` carries explicit :class:`FailureEvent` entries.
    ``random`` draws ``count`` link (or switch) failures with exponential
    inter-arrival gaps of mean ``mtbf_us``, each paired with a recovery
    after an exponential outage of mean ``mttr_us`` — the classic
    MTBF/MTTR availability model, seeded from the cluster seed via the
    named RNG ``stream`` so replays draw the identical schedule.

    ``detect_us`` is the detection delay: subscribers hear about each
    transition that long after it happened, never before.
    """

    kind: str = "none"
    events: tuple[FailureEvent, ...] = ()
    detect_us: float = 5.0
    #: random (MTBF) mode only:
    mtbf_us: float = 0.0
    mttr_us: float = 0.0
    count: int = 0
    targets: str = "nic_links"
    stream: str = "failures"

    def __post_init__(self) -> None:
        if self.kind not in FAILURE_KINDS:
            raise ConfigError(
                f"unknown failure kind {self.kind!r}; "
                f"pick one of {FAILURE_KINDS}"
            )
        if self.detect_us < 0:
            raise ConfigError(
                f"detect_us must be >= 0, got {self.detect_us}"
            )
        object.__setattr__(
            self,
            "events",
            tuple(
                ev if isinstance(ev, FailureEvent)
                else FailureEvent.from_dict(ev)
                for ev in self.events
            ),
        )
        if self.kind == "scheduled":
            if not self.events:
                raise ConfigError("scheduled failure spec needs events")
            times = [ev.time_us for ev in self.events]
            if times != sorted(times):
                raise ConfigError(
                    "scheduled failure events must be time-ordered"
                )
        if self.kind == "random":
            if self.events:
                raise ConfigError(
                    "random failure spec draws its own events; "
                    "use kind 'scheduled' for explicit ones"
                )
            if self.mtbf_us <= 0 or self.mttr_us <= 0:
                raise ConfigError(
                    "random failure spec needs mtbf_us > 0 and mttr_us > 0"
                )
            if self.count < 1:
                raise ConfigError(
                    f"random failure count must be >= 1, got {self.count}"
                )
            if self.targets not in FAILURE_TARGETS:
                raise ConfigError(
                    f"unknown failure target population {self.targets!r}; "
                    f"pick one of {FAILURE_TARGETS}"
                )

    # -- schedule materialization ------------------------------------------
    def schedule(
        self, topology: "Topology", rng: random.Random | None = None
    ) -> list[FailureEvent]:
        """The concrete, time-ordered event list for *topology*.

        Validates scheduled targets against the topology (eagerly — a
        bad index fails at build time, not mid-run) and draws the random
        schedule from *rng* when the kind is ``random``.
        """
        if self.kind == "none":
            return []
        if self.kind == "scheduled":
            n_cables = len(topology.cables())
            n_switches = topology.switch_count()
            for ev in self.events:
                bound = n_cables if ev.action.startswith("link") else n_switches
                if ev.target >= bound:
                    raise ConfigError(
                        f"failure event targets {ev.action.split('_')[0]} "
                        f"{ev.target}, but topology has only {bound}"
                    )
            return list(self.events)
        if rng is None:
            raise ConfigError("random failure schedule needs an RNG")
        if self.targets == "switches":
            pool = list(range(topology.switch_count()))
            down, up = "switch_down", "switch_up"
        else:
            cables = topology.cables()
            pool = list(range(len(cables)))
            if self.targets == "nic_links":
                pool = [
                    i for i, (a, b) in enumerate(cables)
                    if a[0] == "nic" or b[0] == "nic"
                ]
            down, up = "link_down", "link_up"
        if not pool:
            raise ConfigError(
                f"topology has no {self.targets} to fail"
            )
        events: list[FailureEvent] = []
        t = 0.0
        for _ in range(self.count):
            t += rng.expovariate(1.0 / self.mtbf_us)
            target = pool[rng.randrange(len(pool))]
            outage = rng.expovariate(1.0 / self.mttr_us)
            events.append(FailureEvent(t, down, target))
            events.append(FailureEvent(t + outage, up, target))
        events.sort(key=lambda ev: (ev.time_us, ev.action, ev.target))
        return events

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"kind": self.kind}
        if self.kind == "scheduled":
            out["events"] = [ev.to_dict() for ev in self.events]
        elif self.kind == "random":
            out["mtbf_us"] = self.mtbf_us
            out["mttr_us"] = self.mttr_us
            out["count"] = self.count
            if self.targets != "nic_links":
                out["targets"] = self.targets
        if self.detect_us != 5.0:
            out["detect_us"] = self.detect_us
        if self.stream != "failures":
            out["stream"] = self.stream
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FailureSpec":
        if not isinstance(data, dict):
            raise ConfigError(f"failure spec must be an object, got {data!r}")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(
                f"unknown failure spec keys: {', '.join(sorted(unknown))}"
            )
        if "events" in data:
            data = dict(
                data,
                events=tuple(
                    FailureEvent.from_dict(ev) if isinstance(ev, dict) else ev
                    for ev in data["events"]
                ),
            )
        return cls(**data)


class FailureInjector:
    """Applies a :class:`FailureSpec` to a live topology.

    Transitions are scheduled as simulator callbacks at construction
    (one apply at ``time_us``, one subscriber notification at
    ``time_us + detect_us``).  Subscription is the *only* sanctioned way
    for higher layers to learn of failures — reading
    ``topology._down_edges`` directly would be omniscient.
    """

    def __init__(self, sim: "Simulator", topology: "Topology", spec: FailureSpec):
        self.sim = sim
        self.topology = topology
        self.spec = spec
        rng = sim.rng(spec.stream) if spec.kind == "random" else None
        #: The concrete schedule (identical for every replay of a seed).
        self.events: list[FailureEvent] = spec.schedule(topology, rng)
        self._subscribers: list[Callable[[FailureEvent], None]] = []
        #: Transitions actually applied (idempotent repeats excluded).
        self.transitions = 0
        for ev in self.events:
            sim.schedule_callback(ev.time_us, _ApplyCell(self, ev))
            sim.schedule_callback(
                ev.time_us + spec.detect_us, _NotifyCell(self, ev)
            )

    def subscribe(self, callback: Callable[[FailureEvent], None]) -> None:
        """Hear about each transition at detection time (not fault time)."""
        self._subscribers.append(callback)

    def close(self) -> None:
        """Teardown: drop the subscribers, which hold the cluster."""
        self._subscribers.clear()

    def _apply(self, ev: FailureEvent) -> None:
        topo = self.topology
        if ev.action == "link_down":
            changed = topo.set_link_state(ev.target, up=False)
        elif ev.action == "link_up":
            changed = topo.set_link_state(ev.target, up=True)
        elif ev.action == "switch_down":
            changed = topo.set_switch_state(ev.target, up=False)
        else:
            changed = topo.set_switch_state(ev.target, up=True)
        if not changed:
            return
        self.transitions += 1
        m = self.sim.metrics
        if m is not None:
            m.inc(f"net.failures.{ev.action}")
        if self.sim.trace.enabled:
            self.sim.record(
                "network", "failure", action=ev.action, target=ev.target
            )

    def _notify(self, ev: FailureEvent) -> None:
        for callback in self._subscribers:
            callback(ev)


class _ApplyCell:
    """Zero-arg callable binding (injector, event) without a closure."""

    __slots__ = ("injector", "event")

    def __init__(self, injector: FailureInjector, event: FailureEvent):
        self.injector = injector
        self.event = event

    def __call__(self) -> None:
        self.injector._apply(self.event)


class _NotifyCell:
    __slots__ = ("injector", "event")

    def __init__(self, injector: FailureInjector, event: FailureEvent):
        self.injector = injector
        self.event = event

    def __call__(self) -> None:
        self.injector._notify(self.event)


def nic_link_target(topology: "Topology", nic_id: int) -> int:
    """Cable index of *nic_id*'s attachment link — the natural target for
    "this node's NIC link dies" schedules (experiments, tests)."""
    return topology.nic_cable_index(nic_id)
