"""Bench: §7 claim — "promises good scalability".

Two demonstrations:

* the NIC-based scheme's advantage persists (grows) on 32/64-node Clos
  fabrics, which the paper could not measure on its 16-node testbed;
* FM/MC's centralized credit manager saturates with concurrent roots
  while the paper's decentralized scheme scales them independently.
"""

from statistics import mean

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.experiments.runner import measure_gm_multicast
from repro.mcast.fmmc import (
    FMMCCreditManager,
    fmmc_consumer_program,
    fmmc_sender_program,
)
from repro.mcast.manager import install_group, next_group_id, nic_based_multicast
from repro.trees import build_tree


def test_multicast_scaling_beyond_testbed():
    def sweep():
        rows = {}
        for n in (16, 32, 64):
            hb = measure_gm_multicast(n, 512, "hb", iterations=6, warmup=2)
            nb = measure_gm_multicast(n, 512, "nb", iterations=6, warmup=2)
            rows[n] = (hb.latency, nb.latency)
        return rows

    rows = sweep()
    print()
    print(f"{'nodes':>6} {'HB us':>9} {'NB us':>9} {'factor':>7}")
    factors = {}
    for n, (hb, nb) in rows.items():
        factors[n] = hb / nb
        print(f"{n:>6} {hb:>9.1f} {nb:>9.1f} {factors[n]:>7.2f}")
    # The factor does not collapse at scale; it grows from 16 to 64.
    assert factors[64] > factors[16] * 0.95
    assert all(f > 1.3 for f in factors.values())
    # NB latency grows sub-linearly in node count (tree depth effect):
    # 4x the nodes costs < 2.5x the latency.
    assert rows[64][1] < rows[16][1] * 2.5


def test_concurrent_roots_scale_without_central_manager():
    """Many simultaneous NIC-based multicast roots proceed in parallel;
    the same workload under FM/MC serializes at the manager."""

    def nic_based(n_roots):
        n = 12
        cluster = Cluster(ClusterConfig(n_nodes=n))
        rounds = 3
        procs = []
        for idx, root in enumerate(range(1, 1 + n_roots)):
            gid = next_group_id()
            dests = [d for d in range(n) if d != root]
            install_group(
                cluster, gid, build_tree(root, dests, shape="flat")
            )

            def sender(root=root, gid=gid):
                for _ in range(rounds):
                    handle = yield from nic_based_multicast(
                        cluster, gid, 64, root
                    )
                    yield handle.done

            procs.append(cluster.spawn(sender()))
            for d in dests:
                def consumer(d=d):
                    port = cluster.port(d)
                    for _ in range(rounds):
                        yield from port.receive()
                        yield from port.provide_receive_buffer()

                procs.append(cluster.spawn(consumer()))
        cluster.run(until=cluster.sim.all_of(procs))
        return cluster.now

    def fmmc(n_roots):
        n = 12
        cluster = Cluster(ClusterConfig(n_nodes=n))
        manager = FMMCCreditManager(
            cluster, node_id=0, total_credits=4, credits_per_grant=4
        )
        rounds = 3
        procs = []
        for idx, root in enumerate(range(1, 1 + n_roots)):
            gid = next_group_id()
            dests = [d for d in range(1, n) if d != root]
            install_group(
                cluster, gid, build_tree(root, dests, shape="flat")
            )
            procs.append(
                cluster.spawn(
                    fmmc_sender_program(manager, root, gid, 64, rounds, [])
                )
            )
            for d in dests:
                procs.append(
                    cluster.spawn(fmmc_consumer_program(cluster, d, rounds))
                )
        procs.append(cluster.spawn(manager.program(n_roots * rounds)))
        cluster.run(until=cluster.sim.all_of(procs))
        return cluster.now

    def sweep():
        return {
            "ours": {k: nic_based(k) for k in (1, 4)},
            "fmmc": {k: fmmc(k) for k in (1, 4)},
        }

    res = sweep()
    ours_ratio = res["ours"][4] / res["ours"][1]
    fmmc_ratio = res["fmmc"][4] / res["fmmc"][1]
    print()
    print(f"completion-time ratio 4 roots vs 1 root: "
          f"ours {ours_ratio:.2f}x, FM/MC {fmmc_ratio:.2f}x")
    # Decentralized reliability: concurrent roots barely interfere.
    # Central credit manager: near-linear serialization.
    assert ours_ratio < 2.2
    assert fmmc_ratio > 2.4
    assert fmmc_ratio > ours_ratio * 1.3
