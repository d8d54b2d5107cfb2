"""Bench: §6.1 claim — "no noticeable impact on the performance of
non-multicast communications".

The multicast engine attaches to every NIC; this bench verifies plain
GM unicast latency and streaming throughput are identical whether or
not multicast groups exist and whether multicast traffic recently ran.
"""

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.experiments.runner import measure_unicast
from repro.mcast import install_group, multicast
from repro.trees import build_tree


def unicast_in_cluster(cluster, size, iterations=20):
    starts, ends = [], []

    def sender():
        port = cluster.port(0)
        for _ in range(iterations):
            starts.append(cluster.now)
            handle = yield from port.send(1, size)
            yield handle.done

    def receiver():
        port = cluster.port(1)
        for _ in range(iterations):
            yield from port.receive()
            ends.append(cluster.now)
            yield from port.provide_receive_buffer()

    s = cluster.spawn(sender())
    r = cluster.spawn(receiver())
    cluster.run(until=cluster.sim.all_of([s, r]))
    return sum(e - t for e, t in zip(ends, starts)) / iterations


def test_unicast_unaffected_by_multicast_state():
    def experiment():
        rows = {}
        for size in (4, 4096, 16384):
            # Pristine cluster.
            base = unicast_in_cluster(
                Cluster(ClusterConfig(n_nodes=4)), size
            )
            # Cluster with installed groups AND completed multicasts.
            cluster = Cluster(ClusterConfig(n_nodes=4))
            tree = build_tree(0, [1, 2, 3], shape="optimal",
                              cost=cluster.cost, size=size)
            multicast(cluster, tree, 2048, group_id=7000 + size)
            cluster.run()
            loaded = unicast_in_cluster(cluster, size)
            rows[size] = (base, loaded)
        return rows

    rows = experiment_result = experiment()
    print()
    print(f"{'size':>7} {'pristine us':>12} {'with mcast us':>14}")
    for size, (base, loaded) in rows.items():
        print(f"{size:>7} {base:>12.2f} {loaded:>14.2f}")
        # "no noticeable impact": within 2%.
        assert abs(loaded - base) / base < 0.02, size


def test_unicast_latency_calibration():
    # The calibrated GM small-message latency must stay in the regime
    # the paper's hardware delivered (~7-8 us one-way).
    latency = measure_unicast(size=4, iterations=30)
    print(f"\nGM 4-byte one-way latency: {latency:.2f} us")
    assert 5.0 < latency < 11.0
