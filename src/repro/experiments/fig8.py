"""Figure 8: broadcast completion time vs failures injected mid-flight.

Beyond the paper's evaluation: the paper's reliability story (§5) covers
packet loss, not fabric failures.  This figure injects link failures on
interior tree nodes *while a broadcast is in flight* and compares three
recoveries on a 64-node Clos:

* ``nic_based`` — the paper's scheme as-is: the ACK-window retransmit
  timer alone re-delivers once the link returns;
* ``backup_tree`` — switch the group to a precomputed per-node backup
  tree at failure-detection time;
* ``tree_repair`` — regraft the orphaned subtrees in place, replaying
  the delivery gap from the new parents' retransmit windows.

All three deliver 100% of payloads (checked per destination, every
point); the self-healing schemes complete faster because they stop
waiting on the dead link as soon as the failure is *detected* rather
than when it heals.
"""

from __future__ import annotations

from repro.cluster import build_topology
from repro.config import ClusterConfig
from repro.errors import ReproError
from repro.experiments.parallel import run_grid
from repro.experiments.report import FigureResult, Series
from repro.gm.params import GMCostModel
from repro.net.failure import FailureEvent, FailureSpec
from repro.scenario import ScenarioGrid, broadcast_point
from repro.sim.engine import Simulator

__all__ = ["run", "NODES", "SIZE", "SCHEMES", "VICTIMS", "FAILURE_COUNTS"]

NODES = 64
SIZE = 16384
SCHEMES = ("nic_based", "backup_tree", "tree_repair")
#: Interior nodes of the 64-node binomial tree, largest subtree first —
#: each failure orphans a big subtree, the worst case for recovery.
VICTIMS = (32, 16, 8)
FAILURE_COUNTS = (0, 1, 2, 3)
#: First link goes down mid-broadcast, later ones staggered; every
#: failure heals late enough that only the recovery path can beat it.
DOWN_AT, UP_AT, STAGGER = 30.0, 700.0, 40.0


def failure_spec(
    n_failures: int, cost: GMCostModel, seed: int = 0
) -> FailureSpec | None:
    """*n_failures* staggered interior-NIC-link outages, each healed."""
    if n_failures == 0:
        return None
    sim = Simulator()
    topo = build_topology(
        sim,
        ClusterConfig(n_nodes=NODES, cost=cost, seed=seed, topology="clos"),
    )
    try:
        cables = [topo.nic_cable_index(v) for v in VICTIMS[:n_failures]]
    finally:  # the fabric was built only to look the cables up
        topo.close()
        sim.close()
    events = []
    for k, cable in enumerate(cables):
        events.append(
            FailureEvent(DOWN_AT + STAGGER * k, "link_down", cable)
        )
        events.append(FailureEvent(UP_AT + STAGGER * k, "link_up", cable))
    events.sort(key=lambda e: (e.time_us, e.action, e.target))
    return FailureSpec(kind="scheduled", events=tuple(events))


def run(
    quick: bool = False,
    cost: GMCostModel | None = None,
    jobs: int | None = 1,
) -> FigureResult:
    cost = cost or GMCostModel()
    counts = (0, 3) if quick else FAILURE_COUNTS
    result = FigureResult(
        figure_id="fig8",
        title="Broadcast completion time vs mid-flight link failures "
        f"({NODES}-node Clos, {SIZE} B, binomial tree)",
    )
    grid = ScenarioGrid("fig8")
    for scheme in SCHEMES:
        for n_failures in counts:
            grid.add(
                (scheme, n_failures),
                broadcast_point(
                    NODES, SIZE, scheme,
                    cost=cost,
                    tree_shape="binomial",
                    failures=failure_spec(n_failures, cost),
                    name=f"fig8[{scheme},failures={n_failures}]",
                ),
                label=f"fig8[{scheme},failures={n_failures}]",
            )
    values = run_grid(grid, jobs=jobs)
    members = list(range(1, NODES))
    for scheme in SCHEMES:
        series = Series(label=scheme)
        for n_failures in counts:
            point = values[(scheme, n_failures)]
            if not point.delivered_all(members):
                missing = sorted(set(members) - set(point.deliveries))
                raise ReproError(
                    f"fig8[{scheme},failures={n_failures}]: "
                    f"incomplete delivery, missing {missing}"
                )
            series.add(n_failures, point.completion_us)
        result.series.append(series)
    worst = counts[-1]
    baseline = values[("nic_based", worst)].completion_us
    for scheme in ("backup_tree", "tree_repair"):
        healed = values[(scheme, worst)].completion_us
        result.headlines[
            f"{scheme}: completion saved vs ACK-window retransmit at "
            f"{worst} failures, us (expected: > 0)"
        ] = baseline - healed
    result.headlines[
        "all schemes: destinations delivered at every point "
        f"(expected: {NODES - 1})"
    ] = NODES - 1
    return result
