"""Figure 1: the feature-axes comparison, with live probes.

The static half is the feature matrix (``repro.mcast.features``); the
dynamic half *demonstrates* three of the claims on the simulated stack:
protection is enforced, LFC's credits can deadlock while ID-ordered
trees cannot, and FM/MC's central manager throttles concurrent roots.
"""

from __future__ import annotations

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.errors import DeadlockDetected, ProtectionError
from repro.experiments.report import FigureResult, Series
from repro.gm.params import GMCostModel
from repro.mcast.features import SCHEMES, feature_table
from repro.mcast.fmmc import (
    FMMCCreditManager,
    fmmc_consumer_program,
    fmmc_sender_program,
)
from repro.mcast.lfc import run_lfc_multicasts
from repro.mcast.manager import install_group
from repro.sim import Simulator
from repro.trees import SpanningTree, build_tree

__all__ = ["run"]


def _probe_protection() -> bool:
    with Cluster(ClusterConfig(n_nodes=2)) as cluster:
        try:
            next(cluster.port(0).send(1, 8, caller=object()))
        except ProtectionError:
            return True
        return False


def _probe_lfc_deadlock() -> bool:
    sim = Simulator()
    t1 = SpanningTree(root=0, children={0: (1,), 1: (2,)})
    t2 = SpanningTree(root=3, children={3: (2,), 2: (1,)})
    try:
        run_lfc_multicasts(sim, 4, [t1, t2], n_buffers=1)
    except DeadlockDetected:
        return True
    finally:
        sim.close()
    return False


def _probe_id_ordering_immunity() -> bool:
    sim = Simulator()
    trees = [
        build_tree(root, [n for n in range(5) if n != root], shape="chain")
        for root in range(3)
    ]
    try:
        run_lfc_multicasts(sim, 5, trees, n_buffers=2)
    except DeadlockDetected:
        return False
    finally:
        sim.close()
    return True


def _probe_fmmc_bottleneck() -> tuple[float, float]:
    """Completion time with 1 vs 4 concurrent FM/MC roots."""

    def one(n_senders: int) -> float:
        n = 8
        with Cluster(ClusterConfig(n_nodes=n)) as cluster:
            manager = FMMCCreditManager(
                cluster, node_id=0, total_credits=4, credits_per_grant=4
            )
            rounds = 3
            procs = []
            for idx, sender in enumerate(range(1, 1 + n_senders)):
                gid = 900 + idx
                dests = [d for d in range(1, n) if d != sender]
                install_group(
                    cluster, gid, build_tree(sender, dests, shape="flat")
                )
                log: list[float] = []
                procs.append(
                    cluster.spawn(
                        fmmc_sender_program(
                            manager, sender, gid, 64, rounds, log
                        )
                    )
                )
                for d in dests:
                    procs.append(
                        cluster.spawn(fmmc_consumer_program(cluster, d, rounds))
                    )
            procs.append(cluster.spawn(manager.program(n_senders * rounds)))
            cluster.run(until=cluster.sim.all_of(procs))
            return cluster.now

    return one(1), one(4)


def run(quick: bool = False, cost: GMCostModel | None = None) -> FigureResult:
    del quick, cost  # probes are already cheap
    result = FigureResult(
        figure_id="fig1",
        title="Feature-axes comparison of multicast schemes",
    )
    result.extra["table"] = feature_table()

    probes = Series(label="probe (1=claim holds)")
    probes.add(1, float(_probe_protection()))
    probes.add(2, float(_probe_lfc_deadlock()))
    probes.add(3, float(_probe_id_ordering_immunity()))
    t1, t4 = _probe_fmmc_bottleneck()
    probes.add(4, float(t4 > 2.0 * t1))
    result.series.append(probes)
    result.notes.append(
        "probes: 1=GM port protection enforced, 2=LFC credits deadlock on "
        "cyclic trees, 3=ID-ordered trees immune even under LFC, "
        "4=FM/MC central manager throttles concurrent roots "
        f"(1 root: {t1:.0f}us, 4 roots: {t4:.0f}us)"
    )
    result.headlines["probes passing (of 4)"] = sum(probes.ys())
    assert set(SCHEMES) == {"ours", "lfc", "fmmc", "nic_assisted"}
    return result
