"""Recovery-scheme invariants: exactly-once delivery, scheme behavior,
and window drainage across a mid-broadcast link failure."""

from dataclasses import replace
from statistics import mean

import pytest

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.experiments import fig8
from repro.gm.params import GMCostModel
from repro.mcast.schemes import get_scheme, resolve_scheme
from repro.net.failure import FailureEvent, FailureSpec
from repro.net.fault import LossSpec
from repro.obs.registry import MetricsRegistry
from repro.scenario import broadcast_point, run_spec
from repro.trees import build_tree

N = 16
SIZE = 16384
VICTIM = 8
GROUP = 1


def _victim_failure(victim=VICTIM, down=30.0, up=600.0, seed=3):
    scratch = Cluster(ClusterConfig(n_nodes=N, topology="clos", seed=seed))
    cable = scratch.topology.nic_cable_index(victim)
    return FailureSpec(kind="scheduled", events=(
        FailureEvent(down, "link_down", cable),
        FailureEvent(up, "link_up", cable),
    ))


def _run_broadcast(scheme, failures, registry=None, seed=3):
    """One one-shot broadcast to quiescence; returns (cluster, state).

    Members post a *second* receive after relaying: if recovery ever
    delivered a message to a host twice, that probe would complete and
    show up in ``state['dups']``.
    """
    cluster = Cluster(
        ClusterConfig(n_nodes=N, topology="clos", seed=seed,
                      failures=failures)
    )
    if registry is not None:
        cluster.sim.metrics = registry
    spec = get_scheme(resolve_scheme(scheme, context="multicast"))
    tree = build_tree(0, list(range(1, N)), shape="binomial")
    bound = spec.cls(spec, cluster, tree)
    bound.group_id = GROUP
    bound.install()
    state = {"delivered": {}, "dups": []}

    def root():
        yield from bound.post(SIZE)

    def member(i):
        port = cluster.port(i)
        yield from port.receive()
        state["delivered"][i] = cluster.now
        yield from port.provide_receive_buffer()
        yield from bound.relay(i, SIZE)
        yield from port.receive()  # duplicate probe: must never complete
        state["dups"].append(i)

    cluster.spawn(root())
    for i in range(1, N):
        cluster.spawn(member(i))
    cluster.run()
    return cluster, state


@pytest.mark.parametrize("scheme", ["backup_tree", "tree_repair"])
def test_exactly_once_delivery_across_failure(scheme):
    cluster, state = _run_broadcast(scheme, _victim_failure())
    assert sorted(state["delivered"]) == list(range(1, N))
    assert state["dups"] == [], (
        f"duplicate host deliveries after recovery: {state['dups']}"
    )
    # Every delivery-guarantee window closed once the failure healed.
    for i in range(N):
        assert cluster.node(i).mcast.pending_retransmit_state() == {}, i


def test_tree_repair_counters_show_regraft_not_switch():
    registry = MetricsRegistry()
    _run_broadcast("tree_repair", _victim_failure(), registry=registry)
    assert registry.value("mcast.recovery.repairs") >= 1
    assert registry.value("mcast.recovery.regrafts") >= 1
    assert registry.value("mcast.recovery.tree_switches") == 0
    assert registry.value("net.failures.link_down") == 1
    assert registry.value("net.failures.link_up") == 1


def test_backup_tree_counters_show_switch_not_regraft():
    registry = MetricsRegistry()
    _run_broadcast("backup_tree", _victim_failure(), registry=registry)
    assert registry.value("mcast.recovery.tree_switches") == 1
    assert registry.value("mcast.recovery.repairs") == 0


@pytest.mark.parametrize("scheme", ["backup_tree", "tree_repair"])
def test_leaf_failure_recovers_without_rewiring(scheme):
    """A leaf's link down strands no subtree: no regraft or switch is
    needed, only window replay once the link heals."""
    tree = build_tree(0, list(range(1, N)), shape="binomial")
    leaf = max(tree.leaves())
    registry = MetricsRegistry()
    cluster, state = _run_broadcast(
        scheme, _victim_failure(victim=leaf), registry=registry
    )
    assert sorted(state["delivered"]) == list(range(1, N))
    assert state["dups"] == []
    assert registry.value("mcast.recovery.regrafts") == 0
    assert registry.value("mcast.recovery.tree_switches") == 0


def test_no_failures_means_no_recovery_activity():
    registry = MetricsRegistry()
    cluster, state = _run_broadcast("tree_repair", None, registry=registry)
    assert sorted(state["delivered"]) == list(range(1, N))
    for name in registry.names():
        assert not name.startswith("mcast.recovery."), name


def _lossy_failure_broadcast():
    """A ``tree_repair`` broadcast that loses packets to 2% Bernoulli
    loss *and* to a mid-flight failure of node 8's NIC cable, healed
    well before the retransmit window gives up; (point, metrics)."""
    spec = broadcast_point(
        N, SIZE, "tree_repair", seed=5, tree_shape="binomial",
        failures=_victim_failure(seed=5), name="golden-failure-broadcast",
    )
    spec = replace(
        spec,
        cluster=replace(
            spec.cluster, loss=LossSpec(kind="bernoulli", rate=0.02)
        ),
    )
    registry = MetricsRegistry()
    (point,) = run_spec(spec, registry=registry).values.values()
    return point, registry.snapshot()


def test_failure_broadcast_replay_identical():
    """A given (spec, seed) replays byte-identically under loss and a
    mid-flight link failure."""
    first_point, first_metrics = _lossy_failure_broadcast()
    # Full delivery despite 2% bernoulli loss and a mid-flight failure.
    assert sorted(first_point.deliveries) == list(range(1, N))
    assert first_point.completion_us > 0

    second_point, second_metrics = _lossy_failure_broadcast()
    assert second_point == first_point, (
        f"replay diverged: {second_point} != {first_point}"
    )
    assert second_metrics == first_metrics, "metrics diverged"


#: Recovery latency (µs) per scheme on Figure 8's fixture, as (mean,
#: 95th percentile): a 64-node Clos, one 16 KiB broadcast over the
#: binomial tree, and the three staggered interior NIC-link outages.  A
#: destination in a failed node's subtree that is served after the link
#: went down recovers in ``host delivery time - link_down time``.
#: EXPERIMENTS.md and docs/architecture.md cite these numbers.
FIG8_RECOVERY_US = {
    "nic_based": (1618.405, 1949.928),
    "backup_tree": (599.951, 859.674),
    "tree_repair": (712.442, 890.986),
}


def test_fig8_recovery_latencies():
    tree = build_tree(0, list(range(1, fig8.NODES)), shape="binomial")
    failures = fig8.failure_spec(len(fig8.VICTIMS), GMCostModel())
    measured = {}
    for scheme in fig8.SCHEMES:
        spec = broadcast_point(
            fig8.NODES, fig8.SIZE, scheme, tree_shape="binomial",
            failures=failures,
        )
        point = run_spec(spec).value(fig8.SIZE)
        assert len(point.deliveries) == fig8.NODES - 1, scheme
        latencies = []
        for k, victim in enumerate(fig8.VICTIMS):
            down = fig8.DOWN_AT + fig8.STAGGER * k
            for node in tree.subtree_nodes(victim):
                delivered = point.deliveries.get(node)
                if delivered is not None and delivered > down:
                    latencies.append(delivered - down)
        assert len(latencies) == 56, scheme
        ordered = sorted(latencies)
        p95 = ordered[int(0.95 * (len(ordered) - 1))]
        measured[scheme] = (round(mean(latencies), 3), round(p95, 3))
    assert measured == FIG8_RECOVERY_US
