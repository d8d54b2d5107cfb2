"""The workloads, as data: shapes, pinned seeds and why each exists.

How a shape turns into inputs and a timed pass is in
:mod:`bench.passes`; this module imports nothing from the simulator, so
the runner can plan a run without loading it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

__all__ = [
    "SMOKE_SHARE", "Serving", "OneShot", "Workload", "WORKLOADS",
    "KNOWN_FAILING", "ALL_WORKLOADS",
]

#: Smoke runs shrink every workload to about this share of its work.
SMOKE_SHARE = 0.1


@dataclass(frozen=True)
class Serving:
    """A sustained-traffic shape (scenario kind ``serving``).

    Each group posts ``msgs_per_group`` messages at uniformly drawn
    times in ``[0, active_us)`` (a Poisson process conditioned on its
    count, so the work does not vary with the seed), then the run
    drains for ``drain_us``.
    """

    n_nodes: int
    n_groups: int
    group_size: int
    schemes: tuple[str, ...]
    size_classes: tuple[int, ...]
    msgs_per_group: int
    active_us: float
    drain_us: float
    churn_interval_us: float = 0.0
    link_latency: float | None = None
    switch_hop_latency: float | None = None
    loss_rate: float = 0.0
    #: healed switch-to-switch cable outages drawn from the seed
    spine_outages: int = 0
    #: attach a registry, a full-sampling flight recorder and a 1 ms
    #: time-series sampler, as ``python -m repro.obs timeseries`` does
    observed: bool = False

    def scaled(self, smoke: bool) -> "Serving":
        if not smoke:
            return self
        return dataclasses.replace(
            self,
            msgs_per_group=max(1, round(self.msgs_per_group * SMOKE_SHARE)),
            active_us=self.active_us * SMOKE_SHARE,
        )


class OneShot:
    """Short one-shot simulations in the figures' shapes, one cluster each.

    fig4/fig6-shaped MPI broadcasts (with seeded process skew),
    fig9-shaped broadcasts under each reliability family, and
    fig8-shaped broadcasts that lose interior NIC links mid-flight under
    each recovery scheme.  One operation is one simulation; it fails if
    it raises or, for a broadcast, misses a member.  Delivery latencies
    come from the broadcasts without outages.  Random loss stays in
    ``repair64``: here, where one loss delays a whole subtree at once,
    it made the tail quantile swing by 15% from seed to seed.  The cell
    sizes are constants of :mod:`bench.passes`.
    """


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seed: int
    shape: Serving | OneShot
    #: seconds one pass takes on the reference host, child start-up and
    #: set-up included; a run of ``--seconds`` makes ``seconds / pass_s``
    #: passes, so the pass count (and with it the set of inputs) is a
    #: function of the arguments, never of the clock
    pass_s: float
    #: workload whose passes interleave with this one's: the baseline of
    #: the non-perturbation check and of the attached-overhead ratio
    reference: str | None = None


_SERVING16 = Serving(
    n_nodes=16, n_groups=8, group_size=6,
    # host_based mis-delivers under churn: see serving16_all_schemes.
    schemes=("nic_based", "nic_multisend"),
    size_classes=(8192, 32768),
    msgs_per_group=55, active_us=110_000.0, drain_us=10_000.0,
    churn_interval_us=5_000.0,
)

WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "serving16",
            "16 nodes, 8 groups of 6, NIC-based schemes under churn: "
            "fan-out bursts and timer churn keep the kernel hot",
            11, _SERVING16, pass_s=1.7,
        ),
        Workload(
            "serving16_observed",
            "serving16 inputs with registry, flight recorder and time "
            "series attached: the cost of observing a run",
            11, dataclasses.replace(_SERVING16, observed=True),
            # one pass of each, interleaved
            pass_s=3.6, reference="serving16",
        ),
        Workload(
            "clos256",
            "256-node two-level Clos, 96 groups, all four schemes: "
            "multi-hop routing, scale, set-up and memory",
            23, Serving(
                n_nodes=256, n_groups=96, group_size=6,
                schemes=(
                    "nic_based", "nic_multisend", "host_based",
                    "nic_assisted",
                ),
                size_classes=(8192, 32768),
                msgs_per_group=5, active_us=10_000.0, drain_us=3_000.0,
                link_latency=4.0, switch_hop_latency=6.0,
            ), pass_s=2.4,
        ),
        Workload(
            "repair64",
            "64-node Clos, ACK-window, NACK and NACK+FEC under 2% loss "
            "and spine-link outages: the only run where repair works",
            4, Serving(
                n_nodes=64, n_groups=16, group_size=12,
                schemes=("nic_based", "nic_nack", "nic_nack_fec"),
                size_classes=(4096, 16384),
                msgs_per_group=16, active_us=24_000.0, drain_us=6_000.0,
                loss_rate=0.02, spine_outages=6,
            ), pass_s=2.1,
        ),
        Workload(
            "oneshot",
            "short one-shot MPI and broadcast simulations in the figures' "
            "shapes: per-cell set-up, gm, mpi and recovery paths",
            7, OneShot(), pass_s=1.8,
        ),
    )
}

#: Workloads that fail today.  ``BENCHMARK.json`` lists only workloads
#: on which no operation fails, and a plain ``python -m bench`` runs
#: those; these run by name (``--workload``), and their ``ops_failed``
#: is the recorded baseline that ``bench compare`` holds a fix or a
#: regression of the failing path against.
KNOWN_FAILING: dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "serving16_all_schemes",
            "serving16 with all four schemes under churn: host_based "
            "groups deliver extra copies today",
            11, dataclasses.replace(
                _SERVING16,
                schemes=(
                    "nic_based", "nic_multisend", "host_based",
                    "nic_assisted",
                ),
            ), pass_s=1.7,
        ),
    )
}

#: Every workload ``--workload`` accepts.
ALL_WORKLOADS: dict[str, Workload] = {**WORKLOADS, **KNOWN_FAILING}
