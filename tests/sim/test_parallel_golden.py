"""Partitioned-vs-serial determinism proofs (the PR-2/PR-6 bar).

The conservative-parallel kernel must not move a single event: a
partitioned run replays the pinned 54-record golden trace and the quick
fig-3 table byte-identically to serial, at 2 and at 4 shards.

Two workload-level accommodations, both documented in
:mod:`repro.sim.parallel`:

* the golden run's forced drop is destination-qualified here (serial
  and partitioned alike): each shard builds its own ``ScriptedLoss``
  instance, so a ``times=1`` budget is per-shard, and only a predicate
  that names the victim packet fires identically everywhere.  A serial
  run with the qualified predicate still replays the committed fixture
  exactly (asserted first), because dst 1's copy *is* the drop the
  unqualified predicate hits.
* packet uids / message ids are process-global allocators, renumbered
  by first appearance exactly as the serial golden test does.
"""

import json
from pathlib import Path

import pytest

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.gm.params import GMCostModel
from repro.mcast.manager import install_group
from repro.net.fault import ScriptedLoss
from repro.net.packet import PacketType
from repro.sim.parallel import PartitionPlan, ShardSet, merge_traces
from repro.trees import build_tree

FIXTURE = Path(__file__).parent.parent / "mcast" / "golden_8node_trace.txt"

N = 8
SIZE = 4096


def _qualified_loss():
    """The golden drop, pinned to its victim (dst 1's seq-1 data copy)."""
    return ScriptedLoss(
        lambda pkt: pkt.header.ptype is PacketType.MCAST_DATA
        and pkt.header.seq == 1
        and pkt.dst == 1,
        times=1,
    )


def _render(records):
    renumber = {"uid": {}, "msg": {}}
    lines = []
    for rec in records:
        fields = dict(rec.fields)
        for key, seen in renumber.items():
            if key in fields:
                fields[key] = seen.setdefault(fields[key], len(seen))
        rendered = ",".join(f"{k}={fields[k]!r}" for k in sorted(fields))
        lines.append(f"{rec.time:.6f} {rec.component} {rec.category} {rendered}")
    return lines


def _golden_programs(cluster, tree):
    """Spawn the golden workload's local programs on *cluster*."""

    def root():
        handle = yield from cluster.node(0).mcast.multicast_send(
            cluster.port(0), 1, SIZE
        )
        yield handle.done

    def member(i):
        port = cluster.port(i)
        yield from port.receive()
        yield from port.provide_receive_buffer()

    if cluster.is_local(0):
        cluster.spawn(root())
    for i in range(1, N):
        if cluster.is_local(i):
            cluster.spawn(member(i))


def _serial_lines():
    cost = GMCostModel()
    cluster = Cluster(
        ClusterConfig(n_nodes=N, cost=cost, seed=0, trace=True),
        loss=_qualified_loss(),
    )
    tree = build_tree(0, list(range(1, N)), shape="optimal", cost=cost, size=SIZE)
    install_group(cluster, 1, tree)
    _golden_programs(cluster, tree)
    cluster.run()
    return _render(cluster.sim.trace.records)


def _partitioned_lines(n_shards):
    cost = GMCostModel()
    cfg = ClusterConfig(n_nodes=N, cost=cost, seed=0, trace=True)
    plan = PartitionPlan.from_topology(
        Cluster(cfg).topology, n_shards, partitioner="contiguous"
    )
    tree = build_tree(0, list(range(1, N)), shape="optimal", cost=cost, size=SIZE)
    shards = []
    for sid in range(n_shards):
        cluster = Cluster(
            cfg, loss=_qualified_loss(), local_nodes=plan.shard_nodes(sid)
        )
        plan.bind(cluster.topology)
        install_group(cluster, 1, tree)
        _golden_programs(cluster, tree)
        shards.append(cluster)
    conductor = ShardSet(
        plan, [c.sim for c in shards], [c.network for c in shards]
    )
    conductor.run()
    assert conductor.messages > 0, "workload never crossed a shard boundary"
    dropped = sum(c.network.dropped for c in shards)
    assert dropped == 1, f"expected exactly one forced drop, got {dropped}"
    return _render(merge_traces(c.sim for c in shards))


def test_serial_qualified_loss_matches_fixture():
    """The dst-qualified drop IS the fixture's drop (victim identity)."""
    expected = FIXTURE.read_text().splitlines()
    actual = _serial_lines()
    for i, (want, got) in enumerate(zip(expected, actual)):
        assert want == got, f"trace diverges at record {i}:\n-{want}\n+{got}"
    assert len(actual) == len(expected)


@pytest.mark.parametrize("n_shards", [2, 4])
def test_partitioned_golden_trace_identical(n_shards):
    expected = FIXTURE.read_text().splitlines()
    actual = _partitioned_lines(n_shards)
    for i, (want, got) in enumerate(zip(expected, actual)):
        assert want == got, (
            f"{n_shards}-shard trace diverges at record {i}:\n-{want}\n+{got}"
        )
    assert len(actual) == len(expected), (
        f"trace length changed: fixture {len(expected)}, "
        f"{n_shards}-shard run {len(actual)}"
    )


# ---------------------------------------------------------------------------
# Quick fig-3 table identity: every (n_dest, size, scheme) cell of the
# quick multisend sweep, partitioned vs serial, value-for-value.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_shards", [2, 4])
def test_partitioned_fig3_quick_table_identical(n_shards):
    from dataclasses import replace

    from repro.scenario.harness import Harness
    from repro.scenario.spec import (
        QUICK_SIZES,
        PartitionSpec,
        multisend_point,
    )

    for scheme in ("nb", "hb"):
        for size in QUICK_SIZES["multisend"]:
            spec = multisend_point(
                n_dest=7, size=size, scheme=scheme, iterations=5, warmup=1
            )
            serial = Harness(spec).run().values
            part = Harness(
                replace(
                    spec,
                    partition=PartitionSpec(
                        shards=n_shards, partitioner="contiguous"
                    ),
                )
            ).run().values
            assert part == serial, (scheme, size, n_shards, part, serial)


# ---------------------------------------------------------------------------
# Failure + loss replay identity: a broadcast that loses packets AND
# suffers a mid-flight link failure must replay byte-identically for a
# given (spec, seed, shard count) — the bar the self-healing recovery
# schemes (PR "topology failure lifecycle") are held to.  Serial and
# sharded runs are each self-deterministic; serial==sharded equality is
# only promised failure-free (see run_point_partitioned), so each mode
# is compared against its own replay, not across modes.
# ---------------------------------------------------------------------------

def _failure_broadcast_spec():
    from dataclasses import replace

    from repro.net.failure import FailureEvent, FailureSpec
    from repro.net.fault import LossSpec
    from repro.scenario.spec import broadcast_point

    # Victim: node 8's NIC cable, down mid-broadcast, healed well before
    # the retransmit window would give up.
    scratch = Cluster(ClusterConfig(n_nodes=16, topology="clos", seed=5))
    cable = scratch.topology.nic_cable_index(8)
    failures = FailureSpec(kind="scheduled", events=(
        FailureEvent(30.0, "link_down", cable),
        FailureEvent(600.0, "link_up", cable),
    ))
    spec = broadcast_point(
        16, 16384, "tree_repair", seed=5, tree_shape="binomial",
        failures=failures, name="golden-failure-broadcast",
    )
    return replace(
        spec,
        cluster=replace(
            spec.cluster, loss=LossSpec(kind="bernoulli", rate=0.02)
        ),
    )


def _failure_broadcast_run(mode):
    from dataclasses import replace

    from repro.obs.registry import MetricsRegistry
    from repro.scenario.harness import Harness
    from repro.scenario.spec import PartitionSpec

    spec = _failure_broadcast_spec()
    if mode != "serial":
        n_shards = int(mode.split("-")[0])
        spec = replace(
            spec,
            partition=PartitionSpec(
                shards=n_shards, partitioner="contiguous"
            ),
        )
    registry = MetricsRegistry()
    result = Harness(spec, registry=registry).run()
    (point,) = result.values.values()
    return point, registry.snapshot()


@pytest.mark.parametrize("mode", ["serial", "2-shards", "4-shards"])
def test_failure_broadcast_replay_identical(mode):
    first_point, first_metrics = _failure_broadcast_run(mode)
    # Full delivery despite 2% bernoulli loss and a mid-flight failure.
    assert sorted(first_point.deliveries) == list(range(1, 16)), mode
    assert first_point.completion_us > 0

    second_point, second_metrics = _failure_broadcast_run(mode)
    assert second_point == first_point, (
        f"{mode} replay diverged: {second_point} != {first_point}"
    )
    assert second_metrics == first_metrics, f"{mode} metrics diverged"


# ---------------------------------------------------------------------------
# 256-node long-cable serving: the regime sharding was built for.  Every
# count and reported quantile must equal serial's, pinned in
# ``golden_clos256_serving.json``, and the 2- and 4-shard snapshots must
# equal each other.  What may differ from serial is the same-instant tie
# order on contended links: serial grants two walks that claim one
# channel at one instant in global scheduling order, a shard in its
# local order.  A swap shifts the two latencies by one serialization
# time and can add one counted grant event, so ``sim_events`` and the
# per-group mean/max delivery times are left out of the comparison with
# serial (see repro.workload.partitioned).
# ---------------------------------------------------------------------------

CLOS256_FIXTURE = Path(__file__).with_name("golden_clos256_serving.json")


def _clos256_snapshot(shards):
    """The serving snapshot of the 256-node spec; serial for ``None``."""
    from dataclasses import replace

    import repro.workload  # noqa: F401  (registers the serving runner)
    from repro.scenario import TrafficSpec, serving_point
    from repro.scenario.harness import Harness
    from repro.scenario.spec import PartitionSpec

    # Long cables: the conservative lookahead is the minimum cut-link
    # latency, so 4 µs links and 6 µs crossbar hops give wide windows.
    spec = serving_point(
        n_nodes=256,
        traffic=TrafficSpec(
            duration_us=10_000.0,
            n_groups=96,
            group_size=6,
            rate_per_group=1 / 500.0,
            sizes=(8_192, 32_768),
            schemes=(
                "nic_based", "nic_multisend", "host_based", "nic_assisted",
            ),
            churn_interval_us=0.0,
            warmup_us=1_000.0,
        ),
        cost=GMCostModel(link_latency=4.0, switch_hop_latency=6.0),
        seed=23,
        name="clos256-long-cable-serving",
    )
    if shards is not None:
        spec = replace(
            spec,
            partition=PartitionSpec(shards=shards, partitioner="switch_affine"),
        )
    return Harness(spec).run().values[0].snapshot()


def _tie_free_view(snap):
    """*snap* without what tie order may move, as its JSON form."""
    view = {k: v for k, v in snap.items() if k != "sim_events"}
    view["per_group"] = {
        gid: {
            k: v
            for k, v in group.items()
            if k not in ("mean_delivery_us", "max_delivery_us")
        }
        for gid, group in snap["per_group"].items()
    }
    return json.loads(json.dumps(view))


@pytest.fixture(scope="module")
def clos256_sharded():
    """``clos256_sharded(shards)``: each shard count runs once per module."""
    runs = {}

    def get(shards):
        if shards not in runs:
            runs[shards] = _clos256_snapshot(shards)
        return runs[shards]

    return get


@pytest.mark.parametrize("n_shards", [2, 4])
def test_clos256_serving_counts_and_quantiles_match_serial(
    n_shards, clos256_sharded
):
    serial = json.loads(CLOS256_FIXTURE.read_text())
    sharded = clos256_sharded(n_shards)
    assert serial["msgs_delivered"] > 0
    assert _tie_free_view(sharded) == serial
    other = {2: 4, 4: 2}[n_shards]
    assert sharded == clos256_sharded(other), (
        "2- and 4-shard snapshots differ"
    )


if __name__ == "__main__":  # fixture regeneration entry point
    CLOS256_FIXTURE.write_text(
        json.dumps(_tie_free_view(_clos256_snapshot(None)), indent=1,
                   sort_keys=True) + "\n"
    )
    print(f"wrote {CLOS256_FIXTURE}")
