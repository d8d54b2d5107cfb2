"""Measurement entry points: thin wrappers over the scenario harness.

Each ``measure_*`` builds the corresponding declarative
:class:`~repro.scenario.spec.ScenarioSpec` point and executes it through
:class:`~repro.scenario.harness.Harness` — the program templates,
round tracking, and the paper's timing methodology all live there (see
that module's docstring).  The wrappers keep the historical call
signatures the tests use; their results are
byte-identical to the pre-scenario imperative harness (locked by
``tests/experiments/test_golden_regression.py``).
"""

from __future__ import annotations

from repro.gm.params import GMCostModel
from repro.scenario.harness import (
    Harness,
    MulticastMeasurement,
    measured_ack_trip,
)
from repro.scenario.spec import (
    MPI_SIZES,
    PAPER_SIZES,
    mpi_bcast_point,
    multicast_point,
    multisend_point,
    unicast_point,
)

__all__ = [
    "MulticastMeasurement",
    "measure_unicast",
    "measure_multisend",
    "measure_gm_multicast",
    "measure_mpi_bcast",
    "measured_ack_trip",
    "PAPER_SIZES",
    "MPI_SIZES",
]

DEFAULT_ITERATIONS = 30
DEFAULT_WARMUP = 5


def measure_unicast(
    cost: GMCostModel | None = None,
    size: int = 0,
    iterations: int = 10,
    seed: int = 0,
) -> float:
    """Mean one-way GM latency (send post → receive event at the host)."""
    spec = unicast_point(cost=cost, size=size, iterations=iterations, seed=seed)
    return Harness(spec).run().values[size]


def measure_multisend(
    n_dest: int,
    size: int,
    scheme: str,
    iterations: int = DEFAULT_ITERATIONS,
    warmup: int = DEFAULT_WARMUP,
    cost: GMCostModel | None = None,
    seed: int = 0,
) -> float:
    """Fig. 3 metric: mean time from post to the last destination's ack.

    ``scheme``: a registry key (``"nic_multisend"``, ``"host_based"``)
    or the legacy spelling ``"nb"`` / ``"hb"``.
    """
    spec = multisend_point(
        n_dest, size, scheme,
        iterations=iterations, warmup=warmup, cost=cost, seed=seed,
    )
    return Harness(spec).run().values[size]


def measure_gm_multicast(
    n_nodes: int,
    size: int,
    scheme: str,
    iterations: int = DEFAULT_ITERATIONS,
    warmup: int = DEFAULT_WARMUP,
    cost: GMCostModel | None = None,
    seed: int = 0,
    tree_shape: str | None = None,
) -> MulticastMeasurement:
    """Figs. 5 metric for one (system size, message size, scheme) point.

    ``scheme``: a registry key (``"nic_based"``, ``"host_based"``,
    ``"nic_assisted"``) or the legacy spelling ``"nb"`` / ``"hb"``.
    The spanning tree defaults to the scheme's registered shape
    (optimal for NIC-based, binomial for the host-driven baselines).
    """
    spec = multicast_point(
        n_nodes, size, scheme,
        iterations=iterations, warmup=warmup, cost=cost, seed=seed,
        tree_shape=tree_shape,
    )
    return Harness(spec).run().values[size]


def measure_mpi_bcast(
    n_ranks: int,
    size: int,
    nic: bool,
    iterations: int = DEFAULT_ITERATIONS,
    warmup: int = DEFAULT_WARMUP,
    cost: GMCostModel | None = None,
    seed: int = 0,
) -> float:
    """Fig. 4 metric: mean broadcast latency at the MPI level.

    One iteration = root's bcast entry to the last rank's bcast exit,
    plus the measured 0-byte unicast for the leaf's acknowledgment (as
    in the GM-level methodology).  Ranks are pre-synchronized with a
    barrier per iteration, mirroring the paper's loop.
    """
    spec = mpi_bcast_point(
        n_ranks, size, nic,
        iterations=iterations, warmup=warmup, cost=cost, seed=seed,
    )
    return Harness(spec).run().values[size]
