"""The metrics registry: counters, gauges, and fixed-bucket histograms.

One :class:`MetricsRegistry` observes one run.  It hangs off
``Simulator.metrics`` (a plain attribute, ``None`` by default) and the
instrumented layers — the NIC engines, :mod:`repro.net`,
:mod:`repro.proto`, the multicast components — update it through
duck-typed calls::

    m = self.sim.metrics
    if m is not None:
        m.inc("proto.retransmits")

No layer below :mod:`repro.obs` ever imports this module; the registry
is *pushed down* by whoever owns the run (the obs CLI, the experiment
runner's ``--metrics`` flag, a test).  With no registry attached the
instrumentation is a single attribute check — the hot path stays
allocation-free and the event schedule is untouched (the PR-2 golden
trace replays byte-identically either way).

Instruments are created on first use, keyed by dotted name; the prefix
up to the first dot is the *section* used to group the health report
(``nic.*``, ``net.*``, ``proto.*``, ``gm.*``, ``mcast.*``).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsError",
    "LATENCY_BUCKETS_US",
    "OCCUPANCY_BUCKETS",
]

#: Default histogram buckets for microsecond latencies/durations (upper
#: bounds; one implicit +inf overflow bucket).
LATENCY_BUCKETS_US: tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500,
    1000, 2500, 5000, 10000, 25000, 50000, 100000,
)

#: Default buckets for small occupancy counts (SRAM buffers, queue depth).
OCCUPANCY_BUCKETS: tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64, 128)


class MetricsError(ValueError):
    """A metric name was reused with an incompatible type."""


class Counter:
    """A monotonically increasing tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time value; tracks its high-water mark."""

    __slots__ = ("name", "value", "max_value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0
        self.max_value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def add(self, delta: float) -> None:
        self.set(self.value + delta)

    def snapshot(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value, "max": self.max_value}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {self.name}={self.value} max={self.max_value}>"


class Histogram:
    """A fixed-bucket histogram (cumulative-free, Prometheus-style bounds).

    ``bounds`` are ascending upper bounds; an observation lands in the
    first bucket whose bound is >= the value, or in the implicit ``+inf``
    overflow bucket.  Bucket layout is fixed at creation — observing
    never allocates.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total",
                 "min_seen", "max_seen")

    def __init__(self, name: str, bounds: Iterable[float] = LATENCY_BUCKETS_US):
        self.name = name
        self.bounds: tuple[float, ...] = tuple(float(b) for b in bounds)
        if not self.bounds:
            raise MetricsError(f"histogram {name!r} needs at least one bucket")
        if list(self.bounds) != sorted(set(self.bounds)):
            raise MetricsError(
                f"histogram {name!r} bounds must be strictly ascending"
            )
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min_seen = float("inf")
        self.max_seen = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min_seen:
            self.min_seen = value
        if value > self.max_seen:
            self.max_seen = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Upper bound of the bucket holding the *p*-quantile (0 < p <= 1).

        Bucketed data cannot give exact quantiles; the bound is the
        conventional conservative estimate.  The overflow bucket reports
        the true maximum seen.
        """
        if not 0.0 < p <= 1.0:
            raise ValueError(f"percentile must be in (0, 1], got {p}")
        if self.count == 0:
            return 0.0
        target = p * self.count
        cumulative = 0
        for i, n in enumerate(self.counts):
            cumulative += n
            if cumulative >= target:
                return self.bounds[i] if i < len(self.bounds) else self.max_seen
        return self.max_seen  # pragma: no cover - defensive

    def snapshot(self) -> dict[str, Any]:
        buckets: dict[str, int] = {}
        for bound, n in zip(self.bounds, self.counts):
            buckets[f"<={bound:g}"] = n
        buckets["+inf"] = self.counts[-1]
        return {
            "type": "histogram",
            "count": self.count,
            "sum": round(self.total, 6),
            "mean": round(self.mean, 6),
            "min": self.min_seen if self.count else None,
            "max": self.max_seen if self.count else None,
            "p50": self.percentile(0.50),
            "p99": self.percentile(0.99),
            "buckets": buckets,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.2f}>"


class MetricsRegistry:
    """All instruments of one observed run, keyed by dotted name."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    # -- typed get-or-create ----------------------------------------------
    def _get(self, name: str, cls, *args):
        inst = self._metrics.get(name)
        if inst is None:
            inst = self._metrics[name] = cls(name, *args)
        elif type(inst) is not cls:
            raise MetricsError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, not {cls.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(
        self, name: str, buckets: Iterable[float] = LATENCY_BUCKETS_US
    ) -> Histogram:
        return self._get(name, Histogram, buckets)

    # -- terse instrumentation calls (what the engines use) ----------------
    # These run several times per packet when a registry is attached, so
    # the steady-state path is flattened to one dict probe plus inline
    # slot updates; get-or-create (and the type-mismatch error) only runs
    # on each name's first use.
    def inc(self, name: str, n: int = 1) -> None:
        inst = self._metrics.get(name)
        if inst is None or inst.__class__ is not Counter:
            inst = self.counter(name)
        inst.value += n

    def set_gauge(self, name: str, value: float) -> None:
        inst = self._metrics.get(name)
        if inst is None or inst.__class__ is not Gauge:
            inst = self.gauge(name)
        inst.value = value
        if value > inst.max_value:
            inst.max_value = value

    def observe(
        self, name: str, value: float,
        buckets: Iterable[float] = LATENCY_BUCKETS_US,
    ) -> None:
        inst = self._metrics.get(name)
        if inst is None or inst.__class__ is not Histogram:
            inst = self.histogram(name, buckets)
        inst.counts[bisect_left(inst.bounds, value)] += 1
        inst.count += 1
        inst.total += value
        if value < inst.min_seen:
            inst.min_seen = value
        if value > inst.max_seen:
            inst.max_seen = value

    # -- introspection -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        return self._metrics.get(name)

    def value(self, name: str, default: Any = 0) -> Any:
        """Scalar value of a counter/gauge, or a histogram's count."""
        inst = self._metrics.get(name)
        if inst is None:
            return default
        if isinstance(inst, Histogram):
            return inst.count
        return inst.value

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._metrics))

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """JSON-ready ``{name: instrument snapshot}``, sorted by name."""
        return {
            name: self._metrics[name].snapshot()
            for name in sorted(self._metrics)
        }

    def section(self, prefix: str) -> dict[str, dict[str, Any]]:
        """Snapshot restricted to names under ``prefix.`` (or == prefix)."""
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return {
            name: inst.snapshot()
            for name, inst in sorted(self._metrics.items())
            if name == prefix or name.startswith(dotted)
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MetricsRegistry {len(self._metrics)} instruments>"
