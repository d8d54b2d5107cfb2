"""Tests for the utilization analysis — and the mechanism it evidences."""

import pytest

from repro.analysis import cluster_utilization, render_utilization
from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.mcast import host_based_multicast, multicast
from repro.trees import build_tree


def run_scheme(scheme, size=8192, n=8):
    cluster = Cluster(ClusterConfig(n_nodes=n))
    if scheme == "nb":
        tree = build_tree(0, range(1, n), shape="optimal",
                          cost=cluster.cost, size=size)
        multicast(cluster, tree, size)
    else:
        tree = build_tree(0, range(1, n), shape="binomial")
        host_based_multicast(cluster, tree, size)
    cluster.run()
    return cluster


def test_snapshot_structure():
    cluster = run_scheme("nb")
    report = cluster_utilization(cluster)
    assert len(report.nodes) == 8
    assert report.elapsed > 0
    assert report.wire_bytes_total > 8 * 8192  # replicas on the wire
    assert report.link_bytes  # busiest links listed
    assert report.total_nic_cpu > 0


def test_idle_cluster_all_zero():
    cluster = Cluster(ClusterConfig(n_nodes=3))
    report = cluster_utilization(cluster)
    assert report.total_pci == 0
    assert report.wire_bytes_total == 0
    assert report.node_fraction(0, "nic_cpu") == 0.0


def test_render_is_readable():
    cluster = run_scheme("nb", size=1024)
    text = render_utilization(cluster_utilization(cluster))
    assert "NIC cpu" in text
    assert "busiest links" in text
    assert text.count("\n") >= 10


def test_mechanism_hb_burns_more_pci():
    """The paper's core mechanism, made visible: host-based forwarding
    crosses PCI twice per intermediate hop; the NIC-based scheme's
    intermediates only pay the off-critical-path host copy (up), never
    the resend (down)."""
    nb = cluster_utilization(run_scheme("nb"))
    hb = cluster_utilization(run_scheme("hb"))
    assert hb.total_pci > 1.5 * nb.total_pci


def test_mechanism_nb_burns_more_copy_engine():
    nb = cluster_utilization(run_scheme("nb"))
    hb = cluster_utilization(run_scheme("hb"))
    # SRAM staging is unique to NIC forwarding.
    assert nb.total_copy > 0
    assert hb.total_copy == 0


def test_intermediates_idle_hosts_under_nb():
    nb = cluster_utilization(run_scheme("nb"))
    # No host computes during a GM-level multicast.
    assert all(n.host_compute == 0 for n in nb.nodes)


def test_multicast_nic_cpu_exceeds_host_busy():
    """The paper's offload claim on a multicast (not unicast) workload:
    under the registry's nic_based scheme the whole protocol runs on the
    LANai, so NIC-CPU busy time dominates host busy time — in aggregate
    and on every node (intermediates forward without host involvement)."""
    from repro.mcast.manager import run_scheme as run_registered_scheme

    cluster = Cluster(ClusterConfig(n_nodes=8))
    tree = build_tree(0, range(1, 8), shape="optimal",
                      cost=cluster.cost, size=4096)
    result = run_registered_scheme(cluster, "nic_based", tree, 4096)
    assert len(result["delivered"]) == 7  # all members got the message

    report = cluster_utilization(cluster)
    total_host = sum(n.host_compute for n in report.nodes)
    assert report.total_nic_cpu > total_host
    assert report.total_nic_cpu > 0
    for n in report.nodes:
        assert n.nic_cpu >= n.host_compute


def test_resource_busy_accounting_unit():
    from repro.sim import Resource, Simulator

    sim = Simulator()
    res = Resource(sim, name="x")

    def user():
        yield res.hold(5.0)
        yield res.hold(2.5)

    sim.run(until=sim.process(user()))
    assert res.busy_time == pytest.approx(7.5)
    assert res.use_count == 2
