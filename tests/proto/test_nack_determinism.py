"""Determinism and suppression proofs for the NACK reliability family.

Two bars:

* **Replay byte-identity** — the same (spec, seed) with a
  destination-qualified scripted drop replays the exact same event
  trace.  Jitter draws come from per-node named RNG streams.
* **Suppression collapse** — a packet dropped on the link into a
  16-node subtree of a 64-receiver fan-out opens the same gap at every
  descendant; the jittered suppression timers plus the cascading repair
  must collapse that to a handful of NACKs, not one per receiver.
"""

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.gm.params import GMCostModel
from repro.mcast.manager import install_group
from repro.net.fault import ScriptedLoss
from repro.net.packet import PacketType
from repro.obs.registry import MetricsRegistry
from repro.trees import build_tree

N = 16
SIZE = 16384
#: The victim: seq 2's copy on the link into node 8 — in the 16-node
#: binomial tree that severs a whole subtree's view of the packet.
VICTIM_DST, VICTIM_SEQ = 8, 2


def _qualified_loss(dst=VICTIM_DST, seq=VICTIM_SEQ):
    """One scripted drop: seq *seq*'s copy on the link into node *dst*."""
    return ScriptedLoss(
        lambda pkt: pkt.header.ptype is PacketType.MCAST_DATA
        and pkt.header.seq == seq
        and pkt.dst == dst,
        times=1,
    )


def _programs(cluster, n):
    def root():
        handle = yield from cluster.node(0).mcast.multicast_send(
            cluster.port(0), 1, SIZE
        )
        yield handle.done

    def member(i):
        port = cluster.port(i)
        yield from port.receive()
        yield from port.provide_receive_buffer()

    cluster.spawn(root())
    for i in range(1, n):
        cluster.spawn(member(i))


def _render(records):
    """Render trace records with process-global ids (packet uids,
    message ids) stripped: those allocators keep counting across runs
    in one process.  The remaining fields pin each event's node,
    instant, and payload."""
    lines = []
    for rec in records:
        fields = {
            k: v for k, v in rec.fields.items() if k not in ("uid", "msg")
        }
        rendered = ",".join(f"{k}={fields[k]!r}" for k in sorted(fields))
        lines.append(f"{rec.time:.6f} {rec.component} {rec.category} {rendered}")
    return lines


def _serial_run(family="nack", n=N, loss=None, registry=None, trace=True):
    cost = GMCostModel()
    cluster = Cluster(
        ClusterConfig(n_nodes=n, cost=cost, seed=0, trace=trace),
        loss=loss if loss is not None else _qualified_loss(),
    )
    if registry is not None:
        cluster.sim.metrics = registry
    tree = build_tree(0, list(range(1, n)), shape="binomial")
    install_group(cluster, 1, tree, family=family)
    _programs(cluster, n)
    cluster.run()
    return cluster


def _serial_lines(family="nack"):
    return _render(_serial_run(family=family).sim.trace.records)


def test_serial_run_emits_and_recovers():
    """The scripted drop produces at least one NACK and full delivery."""
    registry = MetricsRegistry()
    _serial_run(registry=registry)
    assert registry.value("proto.nack_sent", 0) >= 1
    assert registry.value("proto.nack_repairs", 0) >= 1


def test_serial_replay_identical_nack_fec():
    """The FEC family's reconstruction processes are seeded too: two
    identical runs must match trace-for-trace."""
    assert _serial_lines("nack_fec") == _serial_lines("nack_fec")


def test_suppression_collapses_fanout_implosion():
    """64 receivers, one drop into a 16-node subtree: without
    suppression every affected receiver would NACK (and re-NACK); with
    it, the NACK count stays an order of magnitude below the subtree."""
    n = 64
    registry = MetricsRegistry()
    # Drop seq 2 on the link root -> node 32: the binomial subtree under
    # node 32 (31 nodes) shares the gap.
    cluster = _serial_run(
        family="nack", n=n,
        loss=_qualified_loss(dst=32, seq=2),
        registry=registry, trace=False,
    )
    assert cluster.network.dropped == 1
    nacks = registry.value("proto.nack_sent", 0)
    affected = 32  # node 32 plus its 31 descendants
    assert 1 <= nacks <= affected // 4, (
        f"suppression failed to collapse the implosion: {nacks} NACKs "
        f"for one shared loss across {affected} receivers"
    )
    # The repair fully healed the subtree: exactly-once delivery.
    assert registry.value("proto.nack_repairs", 0) >= 1
