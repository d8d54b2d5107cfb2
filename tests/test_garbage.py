"""Nothing per operation is left for the cyclic garbage collector.

A finished process, a granted resource request and a finished packet
walk must be freed by reference counting as soon as they are dropped.
Each test switches the collector off, runs the simulator, and then
collects once: with ``gc.DEBUG_SAVEALL`` everything only the collector
could free lands in ``gc.garbage``.  The simulator object is kept
alive across that collection, so the cluster-level state it reaches
(its own reference cycles) is not reported.
"""

import gc
from pathlib import Path

from repro.net import Network, Packet, PacketHeader, PacketType, single_switch
from repro.net.fabric import _Traversal
from repro.scenario import ScenarioSpec
from repro.scenario.harness import run_spec
from repro.sim import Resource, Simulator
from repro.sim.process import Process
from repro.sim.resources import Request

SCENARIOS = Path(__file__).resolve().parent.parent / "examples" / "scenarios"


def left_for_collector(run):
    """Call *run* with the collector off; the objects only it can free.

    *run* returns what must stay alive during the collection (normally
    the simulator); the saved garbage is returned as a list.
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


def of_type(garbage, cls):
    return [obj for obj in garbage if isinstance(obj, cls)]


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
        return sim

    assert of_type(left_for_collector(run), Process) == []


def test_granted_requests_leave_no_cycle():
    def run():
        sim = Simulator()
        res = Resource(sim, capacity=1)
        order = []

        def holder(tag):
            yield from res.use(2.0)
            order.append(tag)

        def claimer(tag):
            req = res.request(priority=tag)
            granted = yield req
            assert granted is None
            yield sim.timeout(1.0)
            res.release(req)
            order.append(tag)

        for tag in range(3):
            sim.process(holder(tag))
            sim.process(claimer(10 + tag))
        sim.run()
        assert sorted(order) == [0, 1, 2, 10, 11, 12]
        return sim

    assert of_type(left_for_collector(run), Request) == []


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
        return sim

    garbage = left_for_collector(run)
    assert of_type(garbage, _Traversal) == []
    assert of_type(garbage, Packet) == []
    assert of_type(garbage, Request) == []


def test_scenario_garbage_does_not_grow_with_messages():
    # Unreachable objects after one run, at two run lengths.  The
    # finished cluster is itself a cycle, so some garbage is expected;
    # what must not happen is garbage per delivered message (a cycle in
    # each finished process, packet walk and granted request left about
    # 27 objects per message here).
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
