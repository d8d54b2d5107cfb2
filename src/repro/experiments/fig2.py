"""Figure 2: the timing diagrams, extracted from simulation traces.

The paper's Fig. 2 contrasts (a) host-based multiple unicasts — the NIC
repeats request processing per destination — with (b) the NIC-based
multisend — one request, replicas separated only by header rewrites —
and (c) NIC-based forwarding.  We reproduce the *numbers behind the
diagram*: per-destination transmit start times at the source NIC, and
the forwarding timeline at an intermediate NIC.
"""

from __future__ import annotations

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.experiments.report import FigureResult, Series
from repro.gm.params import GMCostModel
from repro.mcast.manager import install_group, next_group_id
from repro.trees import build_tree

__all__ = ["run"]


def _transmit_starts(scheme: str, size: int, n_dest: int,
                     cost: GMCostModel) -> list[float]:
    """tx_start times at the source NIC for one send to n_dest nodes."""
    n = n_dest + 1
    with Cluster(ClusterConfig(n_nodes=n, cost=cost, trace=True)) as cluster:
        tree = build_tree(0, range(1, n), shape="flat")

        if scheme == "nb":
            gid = next_group_id()
            install_group(cluster, gid, tree)

            def root():
                handle = yield from cluster.node(0).mcast.multicast_send(
                    cluster.port(0), gid, size
                )
                yield handle.done
        else:

            def root():
                port = cluster.port(0)
                handles = []
                for dest in range(1, n):
                    handle = yield from port.send(dest, size)
                    handles.append(handle.done)
                yield cluster.sim.all_of(handles)

        def rx(i):
            port = cluster.port(i)
            yield from port.receive()

        procs = [cluster.spawn(root())]
        procs += [cluster.spawn(rx(i)) for i in range(1, n)]
        cluster.run(until=cluster.sim.all_of(procs))
        return [
            rec.time
            for rec in cluster.sim.trace.filter(
                component="nic[0]", category="tx_start"
            )
            if rec.get("ptype") in ("data", "mcast_data")
        ]


def _forwarding_timeline(size: int, cost: GMCostModel) -> dict[str, float]:
    """Chain 0->1->2: when does NIC 1 receive, forward, and deliver?"""
    with Cluster(ClusterConfig(n_nodes=3, cost=cost, trace=True)) as cluster:
        tree = build_tree(0, [1, 2], shape="chain")
        gid = next_group_id()
        install_group(cluster, gid, tree)
        delivered = {}

        def root():
            handle = yield from cluster.node(0).mcast.multicast_send(
                cluster.port(0), gid, size
            )
            yield handle.done

        def rx(i):
            port = cluster.port(i)
            yield from port.receive()
            delivered[i] = cluster.now

        procs = [cluster.spawn(root())]
        procs += [cluster.spawn(rx(i)) for i in (1, 2)]
        cluster.run(until=cluster.sim.all_of(procs))
        trace = cluster.sim.trace
        recv_at_1 = trace.filter(
            component="network", category="pkt_deliver",
            predicate=lambda r: r["dst"] == 1 and r["ptype"] == "mcast_data",
        )
        fwd_at_1 = trace.filter(component="nic[1]", category="forward")
    return {
        "first_pkt_at_nic1": recv_at_1[0].time,
        "first_forward_queued": fwd_at_1[0].time,
        "host1_delivery": delivered[1],
        "host2_delivery": delivered[2],
    }


def run(quick: bool = False, cost: GMCostModel | None = None) -> FigureResult:
    del quick
    cost = cost or GMCostModel()
    # Small messages: transmission is negligible so the inter-replica
    # gap exposes the *processing* difference the diagram illustrates.
    size, n_dest = 64, 4
    result = FigureResult(
        figure_id="fig2",
        title="Timing-diagram reproduction: per-destination transmit "
        "starts and the forwarding timeline (µs)",
    )
    hb = _transmit_starts("hb", size, n_dest, cost)
    nb = _transmit_starts("nb", size, n_dest, cost)
    s_hb = Series(label="HB tx_start")
    s_nb = Series(label="NB tx_start")
    for i, t in enumerate(hb, start=1):
        s_hb.add(i, t)
    for i, t in enumerate(nb, start=1):
        s_nb.add(i, t)
    result.series = [s_hb, s_nb]
    hb_gaps = [b - a for a, b in zip(hb, hb[1:])]
    nb_gaps = [b - a for a, b in zip(nb, nb[1:])]
    result.headlines["HB mean inter-replica gap (request processing)"] = (
        sum(hb_gaps) / len(hb_gaps)
    )
    result.headlines["NB mean inter-replica gap (header rewrite)"] = (
        sum(nb_gaps) / len(nb_gaps)
    )
    # Forwarding pipelining (Fig 2c) shows best on a multi-packet message.
    timeline = _forwarding_timeline(8192, cost)
    result.extra["forwarding_timeline"] = timeline
    result.headlines["NIC-1 forward lead over its own host delivery"] = (
        timeline["host1_delivery"] - timeline["first_forward_queued"]
    )
    result.notes.append(
        "Fig 2c claim: the intermediate NIC queues the forwarded packet "
        "before (independently of) its own host's delivery — the lead "
        "headline must be positive"
    )
    return result
