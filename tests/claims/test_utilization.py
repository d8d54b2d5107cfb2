"""Bench: resource-utilization evidence for the paper's mechanism.

Runs identical 8 KB multicasts under both schemes and reports where the
time went: host-based forwarding doubles up on PCI at every
intermediate; the NIC-based scheme trades that for LANai cycles and SRAM
copy-engine time.
"""

from repro.analysis import cluster_utilization, render_utilization
from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.mcast import host_based_multicast, multicast
from repro.trees import build_tree


def _run(scheme, size=8192, n=16):
    cluster = Cluster(ClusterConfig(n_nodes=n))
    if scheme == "nb":
        tree = build_tree(0, range(1, n), shape="optimal",
                          cost=cluster.cost, size=size)
        multicast(cluster, tree, size)
    else:
        tree = build_tree(0, range(1, n), shape="binomial")
        host_based_multicast(cluster, tree, size)
    cluster.run()
    return cluster_utilization(cluster)


def test_where_the_time_goes():
    def both():
        return {"nb": _run("nb"), "hb": _run("hb")}

    reports = both()
    for scheme, report in reports.items():
        print(f"\n--- {scheme.upper()} multicast, 16 nodes, 8 KB ---")
        print(render_utilization(report))
    nb, hb = reports["nb"], reports["hb"]
    # The trade the paper describes, in numbers:
    assert hb.total_pci > 1.5 * nb.total_pci        # double PCI crossing
    assert nb.total_copy > 0 and hb.total_copy == 0  # SRAM staging
    assert nb.elapsed < hb.elapsed                   # and NB still wins
    # Wire bytes are identical-ish: both send ~15 replicas of the data.
    assert 0.8 < nb.wire_bytes_total / hb.wire_bytes_total < 1.25
