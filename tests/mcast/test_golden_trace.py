"""Golden-trace identity for the kernel's event schedule.

The v2 kernel (raw-callback timers, `claim_fast`/`try_get` fast paths,
fused run loop) and the one-event `Resource.hold` must not move a single
event relative to the v1 schedule.  This test pins the *complete* trace of an 8-node NIC-based
multicast — with a forced data-packet drop so the retransmission timer,
Go-back-N resend, and duplicate-ACK paths are all on the wire — as a
committed fixture and compares record for record.

A divergence here means a scheduling tie was broken differently (a
fast path assigned a heap sequence number at a different moment), which
is exactly the class of bug the fast paths must not introduce.

Regenerate the fixture (only after deliberately changing the model, and
after verifying the figure tables against a pre-change run)::

    PYTHONPATH=src python tests/mcast/test_golden_trace.py
"""

from pathlib import Path

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.gm.params import GMCostModel
from repro.mcast.manager import install_group
from repro.net.fault import ScriptedLoss
from repro.net.packet import PacketType
from repro.trees import build_tree

FIXTURE = Path(__file__).with_name("golden_8node_trace.txt")


def golden_lines(n=8, size=4096, seed=0, flight=None):
    """Full trace of a retransmitting 8-node multicast, one line per record.

    Packet uids and message ids come from process-global allocators, so
    their absolute values depend on which tests ran earlier in the
    process; renumber both by first appearance so the fixture pins the
    *sequence*, not the allocator state.

    ``flight`` optionally attaches a flight recorder to the run's
    simulator — the observability tests re-run the fixture with one
    attached to pin that hop recording never moves an event.
    """
    cost = GMCostModel()
    loss = ScriptedLoss(
        lambda pkt: pkt.header.ptype is PacketType.MCAST_DATA
        and pkt.header.seq == 1,
        times=1,
    )
    cluster = Cluster(
        ClusterConfig(n_nodes=n, cost=cost, seed=seed, trace=True), loss=loss
    )
    if flight is not None:
        cluster.sim.flight = flight
    dests = list(range(1, n))
    tree = build_tree(0, dests, shape="optimal", cost=cost, size=size)
    install_group(cluster, 1, tree)

    def root():
        handle = yield from cluster.node(0).mcast.multicast_send(
            cluster.port(0), 1, size
        )
        yield handle.done

    def member(i):
        port = cluster.port(i)
        yield from port.receive()
        yield from port.provide_receive_buffer()

    procs = [cluster.spawn(root())]
    procs += [cluster.spawn(member(i)) for i in dests]
    cluster.run(until=cluster.sim.all_of(procs))

    assert loss.dropped == 1, f"expected exactly one forced drop, got {loss.dropped}"
    assert any(
        r.category == "mcast_retransmit" for r in cluster.sim.trace
    ), "golden run must exercise the retransmission path"

    renumber = {"uid": {}, "msg": {}}
    lines = []
    for rec in cluster.sim.trace:
        fields = dict(rec.fields)
        for key, seen in renumber.items():
            if key in fields:
                fields[key] = seen.setdefault(fields[key], len(seen))
        rendered = ",".join(f"{k}={fields[k]!r}" for k in sorted(fields))
        lines.append(f"{rec.time:.6f} {rec.component} {rec.category} {rendered}")
    return lines


def test_golden_trace_identical_to_fixture():
    expected = FIXTURE.read_text().splitlines()
    actual = golden_lines()
    # Compare pairwise first so a failure points at the first divergent
    # record instead of dumping two 50-line blobs.
    for i, (want, got) in enumerate(zip(expected, actual)):
        assert want == got, f"trace diverges at record {i}:\n-{want}\n+{got}"
    assert len(actual) == len(expected), (
        f"trace length changed: fixture {len(expected)}, run {len(actual)}"
    )


if __name__ == "__main__":  # fixture regeneration entry point
    lines = golden_lines()
    FIXTURE.write_text("\n".join(lines) + "\n")
    print(f"wrote {FIXTURE} ({len(lines)} records)")
