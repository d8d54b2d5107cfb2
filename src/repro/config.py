"""Cluster configuration."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields
from typing import Any

from repro.errors import ConfigError
from repro.gm.params import GMCostModel
from repro.net.failure import FailureSpec
from repro.net.fault import LossSpec

__all__ = [
    "ClusterConfig",
    "TOPOLOGIES",
    "KNOWN_EXTRAS",
    "register_extra_key",
    "cost_to_dict",
    "cost_from_dict",
]

TOPOLOGIES = ("single", "clos", "line")

#: Cost-model presets a serialized config may name.
COST_PRESETS = ("lanai9", "fast_host", "slow_nic")

#: Keys :attr:`ClusterConfig.extras` is allowed to carry without a
#: warning.  Experiments that consume an extra register its key here (at
#: import time) so that scenario specs fail loudly on typos instead of
#: silently ignoring a misspelled knob.
KNOWN_EXTRAS: set[str] = set()


def register_extra_key(key: str) -> str:
    """Declare *key* a consumed ``extras`` knob (returns it unchanged)."""
    KNOWN_EXTRAS.add(key)
    return key


@dataclass(frozen=True)
class ClusterConfig:
    """Everything needed to build a :class:`~repro.cluster.Cluster`.

    Attributes
    ----------
    n_nodes:
        Number of nodes (each a host + NIC).
    cost:
        Timing constants; defaults to the paper's testbed preset.
    topology:
        ``"single"`` (one crossbar), ``"clos"`` (two-level Clos above 16
        nodes, single switch at or below — Myrinet's default), or
        ``"line"`` (chained switches, for stress tests).
    seed:
        Master RNG seed (skew draws, loss draws, ...).
    trace:
        Record structured trace events (needed by the Fig. 2 experiment).
    prepost_recv_tokens:
        Receive buffers preposted on every port at construction, before
        simulated time starts (the paper's tests assume receivers are
        ready; replenishment during a run pays normal host costs).
    clos_radix:
        Crossbar radix for the Clos builder.
    loss:
        Declarative packet-loss selection (:class:`~repro.net.fault.LossSpec`);
        ``None`` is the perfect network.  The cluster builds a fresh
        model from it, so serialized scenario specs can express the
        Fig. 7-style loss sweeps without an out-of-band ``Cluster(...,
        loss=)`` argument (which still works and takes precedence, for
        non-serializable models such as ``ScriptedLoss``).
    failures:
        Declarative topology-failure schedule
        (:class:`~repro.net.failure.FailureSpec`); ``None`` means links
        and switches stay up.  The cluster builds a
        :class:`~repro.net.failure.FailureInjector` from it at
        construction.
    extras:
        Free-form knobs for experiments.  Keys must be registered via
        :func:`register_extra_key` where they are consumed; unknown keys
        warn at construction so typos surface instead of no-op'ing.
    """

    n_nodes: int = 16
    cost: GMCostModel = field(default_factory=GMCostModel.lanai9)
    topology: str = "clos"
    seed: int = 0
    trace: bool = False
    prepost_recv_tokens: int = 64
    clos_radix: int = 16
    loss: LossSpec | None = None
    failures: FailureSpec | None = None
    extras: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if (not isinstance(self.n_nodes, int) or isinstance(self.n_nodes, bool)
                or self.n_nodes < 1):
            raise ConfigError(
                f"n_nodes must be an int >= 1, got {self.n_nodes!r}"
            )
        if self.topology not in TOPOLOGIES:
            raise ConfigError(
                f"unknown topology {self.topology!r}; pick one of {TOPOLOGIES}"
            )
        if self.prepost_recv_tokens < 0:
            raise ConfigError("prepost_recv_tokens must be >= 0")
        if self.prepost_recv_tokens > self.cost.recv_tokens_per_port:
            raise ConfigError(
                "cannot prepost more receive tokens than the port owns "
                f"({self.prepost_recv_tokens} > {self.cost.recv_tokens_per_port})"
            )
        if self.loss is not None and not isinstance(self.loss, LossSpec):
            raise ConfigError(
                "ClusterConfig.loss takes a declarative LossSpec; pass a "
                "live LossModel via Cluster(config, loss=...) instead"
            )
        if self.failures is not None and not isinstance(
            self.failures, FailureSpec
        ):
            raise ConfigError(
                "ClusterConfig.failures takes a declarative FailureSpec"
            )
        unknown = set(self.extras) - KNOWN_EXTRAS
        if unknown:
            warnings.warn(
                f"unknown ClusterConfig.extras key(s): "
                f"{', '.join(sorted(unknown))} — no experiment consumes "
                "them (register_extra_key declares consumed keys)",
                stacklevel=2,
            )

    # -- serialization (for scenario specs) ---------------------------------
    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dict carrying only non-default fields."""
        out: dict[str, Any] = {}
        default = type(self)(n_nodes=self.n_nodes)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "cost":
                overrides = cost_to_dict(value)
                if overrides:
                    out["cost"] = overrides
            elif f.name in ("loss", "failures"):
                if value is not None:
                    out[f.name] = value.to_dict()
            elif f.name == "n_nodes" or value != getattr(default, f.name):
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ClusterConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"cluster config must be an object, got {data!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown cluster config keys: {', '.join(sorted(unknown))}"
            )
        kwargs = dict(data)
        if "cost" in kwargs and not isinstance(kwargs["cost"], GMCostModel):
            kwargs["cost"] = cost_from_dict(kwargs["cost"])
        if "loss" in kwargs and kwargs["loss"] is not None and not isinstance(
            kwargs["loss"], LossSpec
        ):
            kwargs["loss"] = LossSpec.from_dict(kwargs["loss"])
        if (
            "failures" in kwargs
            and kwargs["failures"] is not None
            and not isinstance(kwargs["failures"], FailureSpec)
        ):
            kwargs["failures"] = FailureSpec.from_dict(kwargs["failures"])
        return cls(**kwargs)


def cost_to_dict(cost: GMCostModel) -> dict[str, Any]:
    """*cost* as overrides relative to the default preset (JSON-ready)."""
    default = GMCostModel()
    return {
        f.name: getattr(cost, f.name)
        for f in fields(GMCostModel)
        if getattr(cost, f.name) != getattr(default, f.name)
    }


def cost_from_dict(data: dict[str, Any]) -> GMCostModel:
    """Build a cost model from ``{"preset": ..., **overrides}``."""
    if not isinstance(data, dict):
        raise ConfigError(f"cost model must be an object, got {data!r}")
    data = dict(data)
    preset = data.pop("preset", "lanai9")
    if preset not in COST_PRESETS:
        raise ConfigError(
            f"unknown cost preset {preset!r}; pick one of {COST_PRESETS}"
        )
    known = {f.name for f in fields(GMCostModel)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(
            f"unknown cost model fields: {', '.join(sorted(unknown))}"
        )
    return getattr(GMCostModel, preset)(**data)
