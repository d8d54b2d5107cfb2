"""Figure 9: reliability families under packet loss.

Beyond the paper's evaluation: §5 fixes one recovery (sender-driven
ACK-window Go-back-N) and argues it is cheap because loss is rare.  This
figure quantifies the alternatives the pluggable engine registry
(:mod:`repro.proto.engines`) makes selectable per group, sweeping
Bernoulli data-packet loss over 8- and 64-node binomial broadcasts:

* ``nic_based`` — the paper's ACK-window family: a lost packet is
  recovered only when the sender's retransmit timer expires, and the
  Go-back-N resend repeats everything after the loss;
* ``nic_nack`` — receivers detect gaps and NACK them after a jittered
  suppression delay; the sender multicasts the repair to every laggard;
* ``nic_nack_fec`` — NACK plus per-hop XOR parity blocks: any single
  loss per block reconstructs locally with **no repair round trip**.

Two quantities per point, both charted: completion latency (root post to
last host delivery) and repair traffic (``mcast.retransmit_packets`` —
every repair/replay packet emission, uniform across families).  Repair
*round trips* (timeouts + NACKs, the thing FEC removes) feed the
headline comparison.  Every point checks 100% per-destination delivery,
and one extra point per family injects a fig8-style transient link
failure mid-broadcast to show exactly-once delivery survives a severed
subtree under every family.

Points run sequentially through :func:`repro.scenario.harness.run_spec`
with a per-point metrics registry — the process-pool grid path returns
values only, and this figure's counters live in the registry.
"""

from __future__ import annotations

from repro.cluster import build_topology
from repro.config import ClusterConfig
from repro.errors import ReproError
from repro.experiments.report import FigureResult, Series
from repro.gm.params import GMCostModel
from repro.net.failure import FailureEvent, FailureSpec
from repro.net.fault import LossSpec
from repro.obs.registry import MetricsRegistry
from repro.scenario import broadcast_point
from repro.scenario.harness import run_spec
from repro.sim.engine import Simulator

__all__ = ["run", "NODES", "SIZE", "SCHEMES", "LOSS_RATES", "SEED"]

NODES = (8, 64)
SIZE = 16384
SCHEMES = ("nic_based", "nic_nack", "nic_nack_fec")
#: Bernoulli data-loss probabilities (0–5%, the §5 "loss is rare" regime
#: and beyond it).
LOSS_RATES = (0.0, 0.01, 0.02, 0.05)
SEED = 4
#: Transient link outage for the failure points (fig8's shape: down
#: mid-broadcast, healed late enough that only recovery can beat it).
DOWN_AT, UP_AT = 30.0, 700.0

#: Round trips a family needed: ACK-window pays a timer expiry per
#: recovery; the NACK families pay a NACK (or, if a subtree went silent,
#: a fallback timeout).  FEC's local reconstructions appear in neither.
_ROUND_TRIP_COUNTERS = ("proto.retransmit_timeouts", "proto.nack_sent")


def _loss(rate: float) -> LossSpec | None:
    if rate == 0.0:
        return None
    return LossSpec(kind="bernoulli", rate=rate,
                    packet_types=("MCAST_DATA",))


def _failure(n: int, cost: GMCostModel) -> FailureSpec:
    """One interior link severed mid-broadcast, healed at UP_AT."""
    sim = Simulator()
    topo = build_topology(
        sim,
        ClusterConfig(n_nodes=n, cost=cost, seed=SEED, topology="clos"),
    )
    try:
        cable = topo.nic_cable_index(n // 2)  # root's widest-subtree child
    finally:  # the fabric was built only to look the cable up
        topo.close()
        sim.close()
    return FailureSpec(kind="scheduled", events=(
        FailureEvent(DOWN_AT, "link_down", cable),
        FailureEvent(UP_AT, "link_up", cable),
    ))


def _run_point(
    n: int,
    scheme: str,
    cost: GMCostModel,
    rate: float = 0.0,
    failures: FailureSpec | None = None,
    label: str = "",
) -> tuple[object, MetricsRegistry]:
    registry = MetricsRegistry()
    spec = broadcast_point(
        n, SIZE, scheme,
        cost=cost,
        seed=SEED,
        tree_shape="binomial",
        loss=_loss(rate),
        failures=failures,
        name=label,
    )
    result = run_spec(spec, registry=registry)
    point = result.values[SIZE]
    members = list(range(1, n))
    if not point.delivered_all(members):
        missing = sorted(set(members) - set(point.deliveries))
        raise ReproError(
            f"{label}: incomplete delivery, missing {missing}"
        )
    return point, registry


def _round_trips(registry: MetricsRegistry) -> int:
    return sum(registry.value(name, 0) for name in _ROUND_TRIP_COUNTERS)


def run(
    quick: bool = False,
    cost: GMCostModel | None = None,
    jobs: int | None = 1,
) -> FigureResult:
    """*jobs* is accepted for CLI parity but unused: each point needs
    its own metrics registry back, which the process-pool grid path does
    not return, and the per-point broadcasts are sub-second anyway."""
    del jobs
    cost = cost or GMCostModel()
    nodes = (8,) if quick else NODES
    rates = (0.0, 0.02) if quick else LOSS_RATES
    result = FigureResult(
        figure_id="fig9",
        title="Reliability families vs data loss "
        f"({'/'.join(str(n) for n in nodes)}-node Clos, {SIZE} B, "
        "binomial tree): completion and repair traffic",
    )
    round_trips: dict[tuple[str, int, float], int] = {}
    for n in nodes:
        for scheme in SCHEMES:
            completion = Series(label=f"{scheme}[n={n}] us")
            repair_pkts = Series(label=f"{scheme}[n={n}] repair_pkts")
            for rate in rates:
                label = f"fig9[{scheme},n={n},loss={rate:g}]"
                point, registry = _run_point(
                    n, scheme, cost, rate=rate, label=label
                )
                completion.add(rate * 100.0, point.completion_us)
                repair_pkts.add(
                    rate * 100.0,
                    registry.value("mcast.retransmit_packets", 0),
                )
                round_trips[(scheme, n, rate)] = _round_trips(registry)
            result.series.append(completion)
            result.series.append(repair_pkts)

    # The claim FEC exists to make: at >= 2% loss it needs fewer repair
    # round trips than the ACK-window timer, because single losses per
    # block reconstruct locally.
    wide = nodes[-1]
    lossy = [rate for rate in rates if rate >= 0.02]
    ack_rt = sum(round_trips[("nic_based", wide, r)] for r in lossy)
    fec_rt = sum(round_trips[("nic_nack_fec", wide, r)] for r in lossy)
    result.headlines[
        f"nic_nack_fec: repair round trips saved vs ACK-window at "
        f">=2% loss, n={wide} (expected: > 0)"
    ] = ack_rt - fec_rt
    result.extra["round_trips"] = {
        f"{scheme},n={n},loss={rate:g}": count
        for (scheme, n, rate), count in sorted(round_trips.items())
    }

    # Exactly-once delivery under a severed subtree, every family: the
    # loss sweep exercises random drops; this exercises total silence.
    fail_n = nodes[-1]
    failures = _failure(fail_n, cost)
    for scheme in SCHEMES:
        label = f"fig9[{scheme},n={fail_n},link_failure]"
        point, registry = _run_point(
            fail_n, scheme, cost, failures=failures, label=label
        )
        result.extra.setdefault("failure_completion_us", {})[scheme] = (
            point.completion_us
        )
    result.headlines[
        "all families: destinations delivered at every point, including "
        f"a transient mid-broadcast link failure (expected: {fail_n - 1})"
    ] = fail_n - 1
    return result
