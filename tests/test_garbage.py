"""Nothing is left for the cyclic garbage collector.

A finished process, a granted resource request and a finished packet
walk must be freed by reference counting as soon as they are dropped,
and so must a closed cluster (:meth:`repro.cluster.Cluster.close`),
whatever work it still had queued.  Each test switches the collector
off, runs the simulator, and then collects once: with
``gc.DEBUG_SAVEALL`` everything only the collector could free lands in
``gc.garbage``.  :func:`cycles_by_type` names the reference cycles in
what is left, so a failure says which edge leaks, not only how much.
"""

import gc
import importlib
from collections import Counter
from pathlib import Path

import pytest

import repro.workload  # noqa: F401  (registers the serving runner)
from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.gm.params import GMCostModel
from repro.mcast.schemes import BoundScheme, available_schemes, get_scheme
from repro.net import Network, Packet, PacketHeader, PacketType, single_switch
from repro.net.failure import FailureEvent, FailureSpec
from repro.obs.health import run_observed
from repro.scenario import Harness, ScenarioSpec
from repro.scenario.harness import run_spec
from repro.scenario.spec import (
    broadcast_point,
    mpi_bcast_point,
    multicast_point,
    multisend_point,
    skew_point,
    unicast_point,
)
from repro.sim import Resource, Simulator

SCENARIOS = Path(__file__).resolve().parent.parent / "examples" / "scenarios"


def left_for_collector(run):
    """Call *run* with the collector off; the objects only it can free.

    Whatever *run* returns stays alive during the collection; the saved
    garbage is returned as a list.
    """
    gc.collect()
    flags = gc.get_debug()
    gc.disable()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        keep = run()
        gc.collect()
        garbage = list(gc.garbage)
        del keep
        return garbage
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
        gc.enable()


def cycles_by_type(garbage):
    """The reference cycles in *garbage*, counted by type signature.

    Groups the objects into the strongly connected components of their
    references to each other (Tarjan's algorithm, without recursion).
    A component of several objects, or of one that refers to itself,
    is a cycle.  Returns lines such as ``32 × {GroupState,
    RetransmitTimer, function, tuple}``, most frequent first.
    """
    by_id = {id(obj): obj for obj in garbage}
    edges = {
        key: [id(ref) for ref in gc.get_referents(obj) if id(ref) in by_id]
        for key, obj in by_id.items()
    }
    index, low, stack, on_stack = {}, {}, [], set()
    signatures = Counter()
    for root in edges:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            node, nxt = work.pop()
            if nxt == 0:
                index[node] = low[node] = len(index)
                stack.append(node)
                on_stack.add(node)
            for k in range(nxt, len(edges[node])):
                succ = edges[node][k]
                if succ not in index:
                    work += [(node, k + 1), (succ, 0)]
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            else:
                if low[node] == index[node]:
                    component = []
                    while not component or component[-1] != node:
                        component.append(stack.pop())
                        on_stack.discard(component[-1])
                    if len(component) > 1 or node in edges[node]:
                        names = sorted(
                            {type(by_id[m]).__name__ for m in component}
                        )
                        signatures["{" + ", ".join(names) + "}"] += 1
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    ranked = sorted(signatures.items(), key=lambda item: (-item[1], item[0]))
    return [f"{count} × {names}" for names, count in ranked]


def describe(garbage):
    """*garbage*'s size and its cycles, for an assertion message."""
    return "\n".join(
        [f"{len(garbage)} objects left for the collector:"]
        + cycles_by_type(garbage)
    )


def test_cycles_by_type_names_each_cycle():
    class Knot:
        __slots__ = ("other",)

    def run():
        for _ in range(2):
            a, b = Knot(), Knot()
            a.other, b.other = b, a
        alone = Knot()
        alone.other = alone
        tied = Knot()
        tied.other = [tied, ("not", "in", "a", "cycle")]

    garbage = left_for_collector(run)
    assert cycles_by_type(garbage) == ["3 × {Knot}", "1 × {Knot, list}"]
    assert describe(garbage).startswith(f"{len(garbage)} objects left")


def test_finished_processes_leave_no_cycle():
    # An exception thrown into a process (an interrupt, a failed event)
    # is left out: on Python 3.12 the frame its traceback keeps links
    # back to the kernel frame that threw it, which is a cycle whatever
    # the kernel does.
    def run():
        sim = Simulator()
        log = []

        def worker(k):
            yield sim.timeout(1.0 + k)
            return k

        def joiner(procs):
            for proc in procs:
                log.append((yield proc))
            # Waiting on a process that has already finished resumes at
            # once, as before.
            log.append((yield procs[0]))

        workers = [sim.process(worker(k)) for k in range(5)]
        sim.process(joiner(workers))
        del workers
        sim.run()
        assert log == [0, 1, 2, 3, 4, 0]
        sim.close()

    garbage = left_for_collector(run)
    assert garbage == [], describe(garbage)


def test_granted_requests_leave_no_cycle():
    def run():
        sim = Simulator()
        res = Resource(sim)
        order = []

        def holder(tag):
            yield res.hold(2.0)
            order.append(tag)

        def claimer(tag):
            granted = yield res.request()
            assert granted is None
            yield sim.timeout(1.0)
            res.release()
            order.append(tag)

        for tag in range(3):
            sim.process(holder(tag))
            sim.process(claimer(10 + tag))
        sim.run()
        assert sorted(order) == [0, 1, 2, 10, 11, 12]
        sim.close()

    garbage = left_for_collector(run)
    assert garbage == [], describe(garbage)


def test_packet_walks_leave_no_cycle():
    def run():
        sim = Simulator()
        net = Network(sim, single_switch(sim, 2, 250.0, 0.1, 0.2))
        got = []
        net.attach(0, lambda pkt: got.append(pkt.uid))
        net.attach(1, lambda pkt: got.append(pkt.uid))
        injected = []
        # Several packets at one instant, both ways: all but the first
        # in each direction wait for the link (the granted-claim path).
        for seq in range(6):
            for src, dst in ((0, 1), (1, 0)):
                net.inject(
                    Packet(
                        header=PacketHeader(
                            ptype=PacketType.DATA, src=src, dst=dst,
                            origin=src, payload=512, seq=seq,
                        )
                    ),
                    on_injected=lambda pkt: injected.append(pkt.uid),
                )
        sim.run()
        assert len(got) == 12 and len(injected) == 12
        sim.close()

    garbage = left_for_collector(run)
    assert garbage == [], describe(garbage)


def _outages(n_nodes):
    """Two healed NIC-cable outages of interior binomial-tree nodes."""
    with Cluster(ClusterConfig(n_nodes=n_nodes)) as cluster:
        cables = [
            cluster.topology.nic_cable_index(victim)
            for victim in (n_nodes // 2, n_nodes // 4)
        ]
    events = []
    for k, cable in enumerate(cables):
        events.append(FailureEvent(15.0 + 40.0 * k, "link_down", cable))
        events.append(FailureEvent(685.0 + 40.0 * k, "link_up", cable))
    events.sort(key=lambda e: (e.time_us, e.action, e.target))
    return FailureSpec(kind="scheduled", events=tuple(events))


#: Schemes that can post a one-shot broadcast (not only ``run_once``).
BROADCAST_SCHEMES = [
    key for key in available_schemes()
    if get_scheme(key).cls.post is not BoundScheme.post
]

POINTS = {
    "unicast": lambda: unicast_point(size=4096, iterations=3),
    **{
        f"multisend[{scheme}]": (
            lambda scheme=scheme: multisend_point(
                4, 4096, scheme, iterations=3, warmup=1
            )
        )
        for scheme in ("nic_multisend", "host_based")
    },
    **{
        f"multicast[{scheme}]": (
            lambda scheme=scheme: multicast_point(
                8, 4096, scheme, iterations=3, warmup=1
            )
        )
        for scheme in ("nic_based", "host_based", "nic_assisted")
    },
    **{
        f"broadcast[{scheme}]": (
            lambda scheme=scheme: broadcast_point(
                16, 8192, scheme, tree_shape="binomial"
            )
        )
        for scheme in BROADCAST_SCHEMES
    },
    # On a two-level Clos, so switches are cabled to each other.
    **{
        f"broadcast[{scheme},outages]": (
            lambda scheme=scheme: broadcast_point(
                32, 16384, scheme, tree_shape="binomial",
                failures=_outages(32),
            )
        )
        for scheme in ("backup_tree", "tree_repair")
    },
    **{
        f"mpi_bcast[{kind}]": (
            lambda nic=nic: mpi_bcast_point(16, 8192, nic, 3, 1)
        )
        for kind, nic in (("nic", True), ("host", False))
    },
    **{
        f"mpi_skew[{kind}]": (
            lambda nic=nic: skew_point(16, nic, 3200.0, 4, 3, warmup=1)
        )
        for kind, nic in (("nic", True), ("host", False))
    },
}


@pytest.mark.parametrize("point", sorted(POINTS))
def test_closed_clusters_leave_nothing(point):
    # The harness closes each point's cluster once its value is taken.
    # MPI points stop with retransmission timers still queued, the
    # outage points with recovery control planes subscribed.
    spec = POINTS[point]()
    garbage = left_for_collector(lambda: Harness(spec).run())
    assert garbage == [], describe(garbage)


def test_closed_serving_cluster_leaves_nothing():
    # Serving stops at its duration with packets, timers and programs
    # still in flight, and member loops waiting on their ports.
    spec = ScenarioSpec.from_json(
        (SCENARIOS / "serving_churn.json").read_text()
    )
    garbage = left_for_collector(lambda: Harness(spec).run())
    assert garbage == [], describe(garbage)


@pytest.mark.parametrize("figure", ["fig1", "fig2"])
def test_probe_figures_close_their_clusters(figure):
    # fig1 and fig2 build their probe clusters outside Harness.
    module = importlib.import_module(f"repro.experiments.{figure}")
    garbage = left_for_collector(lambda: module.run(quick=True))
    assert garbage == [], describe(garbage)


@pytest.mark.parametrize("figure, make", [
    ("fig8", lambda module, cost: module.failure_spec(3, cost)),
    ("fig9", lambda module, cost: module._failure(64, cost)),
], ids=["fig8", "fig9"])
def test_failure_figures_close_their_scratch_fabrics(figure, make):
    # fig8 and fig9 build a fabric only to look up cable indices.
    module = importlib.import_module(f"repro.experiments.{figure}")
    garbage = left_for_collector(lambda: make(module, GMCostModel()))
    assert garbage == [], describe(garbage)


def test_observed_run_closes_its_cluster():
    garbage = left_for_collector(
        lambda: run_observed("nic_based", flight=True, trace=True)
    )
    assert garbage == [], describe(garbage)


def test_scenario_garbage_does_not_grow_with_messages():
    # Unreachable objects after one run, at two run lengths: no garbage
    # per delivered message (a cycle in each finished process, packet
    # walk and granted request left about 27 objects per message here).
    base = ScenarioSpec.from_json(
        (SCENARIOS / "nic_multicast_lossy.json").read_text()
    )

    def unreachable(iterations):
        data = base.to_dict()
        data["measurement"]["iterations"] = iterations
        spec = ScenarioSpec.from_dict(data)
        m = spec.measurement
        delivered = len(m.sizes) * (m.warmup + m.iterations) * len(
            spec.destinations()
        )
        gc.collect()
        gc.disable()
        try:
            run_spec(spec)
            return gc.collect(), delivered
        finally:
            gc.enable()

    few, few_msgs = unreachable(5)
    many, many_msgs = unreachable(15)
    assert many_msgs - few_msgs == 140
    assert many - few < 5 * (many_msgs - few_msgs), (few, many)
