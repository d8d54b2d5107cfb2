"""Unit tests for the conservative-parallel kernel pieces.

The end-to-end determinism proofs (golden trace, fig-3 table) live in
``test_parallel_golden.py``; this file covers the mechanisms — partition
plans, ownership, lookahead, the cut-scan cache, ``run_window``,
``PartitionSpec`` validation, and the partitioned serving path across
both conductor modes.
"""

import math

import pytest

from repro.errors import ConfigError
from repro.net import clos, line, single_switch
from repro.sim import Simulator
from repro.sim.parallel import PARTITIONERS, PartitionPlan, ShardSet

BW = 250.0
LINK_LAT = 0.1
HOP_LAT = 0.3


def make_topo(kind, n, **kw):
    sim = Simulator()
    builder = {"single": single_switch, "clos": clos, "line": line}[kind]
    return sim, builder(sim, n, BW, LINK_LAT, HOP_LAT, **kw)


class TestPartitionPlan:
    def test_contiguous_balance(self):
        _, topo = make_topo("single", 10)
        plan = PartitionPlan.from_topology(topo, 3, partitioner="contiguous")
        sizes = plan.shard_sizes()
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1
        # Contiguous means monotone shard ids over node ids.
        assert list(plan.node_to_shard) == sorted(plan.node_to_shard)

    @pytest.mark.parametrize("n_shards", [2, 3, 4, 7])
    def test_switch_affine_balance_and_nonempty(self, n_shards):
        _, topo = make_topo("clos", 64, radix=16)
        plan = PartitionPlan.from_topology(
            topo, n_shards, partitioner="switch_affine"
        )
        sizes = plan.shard_sizes()
        assert sum(sizes) == 64
        assert max(sizes) - min(sizes) <= 1
        assert min(sizes) >= 1

    def test_switch_affine_leaf_locality(self):
        """At most n_shards - 1 leaves straddle a shard boundary."""
        _, topo = make_topo("clos", 64, radix=16)
        n_shards = 4
        plan = PartitionPlan.from_topology(
            topo, n_shards, partitioner="switch_affine"
        )
        straddling = 0
        for sw in topo.switches:
            nics = [
                nbr[1]
                for nbr in topo.neighbors(("switch", sw.switch_id))
                if nbr[0] == "nic"
            ]
            if nics and len({plan.node_to_shard[i] for i in nics}) > 1:
                straddling += 1
        assert straddling <= n_shards - 1

    def test_switch_affine_on_single_switch_fabric(self):
        """One leaf, many shards: the split must still balance."""
        _, topo = make_topo("single", 8)
        plan = PartitionPlan.from_topology(
            topo, 4, partitioner="switch_affine"
        )
        assert sorted(plan.shard_sizes()) == [2, 2, 2, 2]

    def test_seed_rotates_switch_affine(self):
        _, topo = make_topo("clos", 64, radix=16)
        a = PartitionPlan.from_topology(topo, 2, seed=0)
        b = PartitionPlan.from_topology(topo, 2, seed=1)
        assert a.node_to_shard != b.node_to_shard
        assert sorted(a.shard_sizes()) == sorted(b.shard_sizes())

    def test_plan_is_deterministic(self):
        _, topo1 = make_topo("clos", 64, radix=16)
        _, topo2 = make_topo("clos", 64, radix=16)
        p1 = PartitionPlan.from_topology(topo1, 4)
        p2 = PartitionPlan.from_topology(topo2, 4)
        assert p1.node_to_shard == p2.node_to_shard
        assert p1.switch_owner == p2.switch_owner
        assert p1.lookahead == p2.lookahead

    def test_nic_links_follow_nic(self):
        _, topo = make_topo("single", 8)
        plan = PartitionPlan.from_topology(topo, 2, partitioner="contiguous")
        for (u, v), _link in topo._links.items():
            if u[0] == "nic":
                assert plan.link_owner((u, v)) == plan.node_to_shard[u[1]]
            elif v[0] == "nic":
                assert plan.link_owner((u, v)) == plan.node_to_shard[v[1]]

    def test_switch_links_follow_source_switch(self):
        _, topo = make_topo("clos", 64, radix=16)
        plan = PartitionPlan.from_topology(topo, 4)
        for (u, v), _link in topo._links.items():
            if u[0] == "switch" and v[0] == "switch":
                assert plan.link_owner((u, v)) == plan.switch_owner[u[1]]

    def test_leaf_switch_follows_nic_majority(self):
        _, topo = make_topo("single", 8)
        plan = PartitionPlan.from_topology(topo, 2, partitioner="contiguous")
        # 4 NICs per shard attached to the one switch: tie resolves to
        # the lowest shard id.
        assert plan.switch_owner == (0,)

    def test_lookahead_single_switch(self):
        """All cut feeders on a single switch are NIC→switch links,
        which carry the link latency plus the crossbar hop latency."""
        _, topo = make_topo("single", 8)
        plan = PartitionPlan.from_topology(topo, 2, partitioner="contiguous")
        assert plan.n_cut_links > 0
        assert plan.lookahead == pytest.approx(LINK_LAT + HOP_LAT)

    def test_one_shard_has_no_cut(self):
        _, topo = make_topo("single", 8)
        plan = PartitionPlan.from_topology(topo, 1)
        assert plan.n_cut_links == 0
        assert plan.lookahead == math.inf

    def test_bind_stamps_owners(self):
        _, topo = make_topo("single", 4)
        plan = PartitionPlan.from_topology(topo, 2, partitioner="contiguous")
        plan.bind(topo)
        for key, link in topo._links.items():
            assert link.owner == plan.link_owner(key)

    def test_zero_latency_cut_rejected(self):
        sim = Simulator()
        topo = single_switch(sim, 4, BW, 0.0, 0.0)
        with pytest.raises(ConfigError, match="zero-latency"):
            PartitionPlan.from_topology(topo, 2, partitioner="contiguous")

    def test_unknown_partitioner_rejected(self):
        _, topo = make_topo("single", 4)
        with pytest.raises(ConfigError, match="unknown partitioner"):
            PartitionPlan.from_topology(topo, 2, partitioner="round_robin")

    def test_more_shards_than_nodes_rejected(self):
        _, topo = make_topo("single", 4)
        with pytest.raises(ConfigError):
            PartitionPlan.from_topology(topo, 5)

    def test_partitioner_registry_matches(self):
        assert set(PARTITIONERS) == {"contiguous", "switch_affine"}


class TestCutScanCache:
    def test_cut_scan_memoized(self):
        _, topo = make_topo("clos", 64, radix=16)
        plan = PartitionPlan.from_topology(topo, 4)
        cache = topo._partition_cut_cache
        assert len(cache) == 1
        # Same wiring, same partition: a rebuilt plan hits the cache.
        again = PartitionPlan.from_topology(topo, 4)
        assert topo._partition_cut_cache is cache
        assert len(cache) == 1
        assert again.lookahead == plan.lookahead

    def test_cable_invalidates_cut_scan(self):
        _, topo = make_topo("line", 6, nodes_per_switch=2)
        version = topo.version
        plan = PartitionPlan.from_topology(topo, 2, partitioner="contiguous")
        old_key = next(iter(topo._partition_cut_cache))
        topo.cable(("switch", 0), ("switch", 2))
        assert topo.version > version
        rebuilt = PartitionPlan.from_topology(
            topo, 2, partitioner="contiguous"
        )
        new_key = next(iter(topo._partition_cut_cache))
        assert new_key != old_key
        assert len(topo._partition_cut_cache) == 1
        assert rebuilt.n_cut_links != plan.n_cut_links or (
            rebuilt.lookahead == plan.lookahead
        )

    def test_cable_invalidates_route_cache(self):
        _, topo = make_topo("line", 6, nodes_per_switch=2)
        before = topo.route(0, 5)
        hops_before = len(before)
        topo.cable(("switch", 0), ("switch", 2))
        after = topo.route(0, 5)
        assert after is not before
        assert len(after) < hops_before  # the shortcut is used

    def test_network_route_cache_follows_version(self):
        from repro.net import Network, Packet, PacketHeader, PacketType

        sim, topo = make_topo("line", 6, nodes_per_switch=2)
        net = Network(sim, topo)
        delivered = []
        for nic in range(6):
            net.attach(nic, delivered.append)

        def send():
            net.inject(Packet(header=PacketHeader(
                ptype=PacketType.DATA, src=0, dst=5, origin=0, payload=8,
            )))

        send()
        before = net._routes[(0, 5)]
        version = topo.version
        topo.cable(("switch", 0), ("switch", 2))
        assert topo.version > version
        assert (0, 5) not in net._routes  # the next lookup misses...
        send()
        after = net._routes[(0, 5)]
        assert len(after) < len(before)  # ...and takes the shortcut
        assert after == topo.route(0, 5)
        sim.run()
        assert len(delivered) == 2


class TestRunWindow:
    def test_processes_strictly_before_horizon(self):
        sim = Simulator()
        seen = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule_callback(t, lambda t=t: seen.append(t))
        sim.run_window(3.0)
        assert seen == [1.0, 2.0]
        assert sim.now == 2.0  # clock rests on the last processed event
        sim.run_window(3.5)
        assert seen == [1.0, 2.0, 3.0]

    def test_clock_not_bumped_to_horizon(self):
        """Cross-shard messages due >= horizon stay schedulable."""
        sim = Simulator()
        sim.schedule_callback(1.0, lambda: None)
        sim.run_window(5.0)
        assert sim.now == 1.0
        sim.schedule_callback(5.0, lambda: None)  # must not raise

    def test_empty_window_is_noop(self):
        sim = Simulator()
        hits = []
        sim.schedule_callback(10.0, lambda: hits.append(1))
        sim.run_window(5.0)
        assert hits == [] and sim.now == 0.0

    def test_past_horizon_rejected(self):
        sim = Simulator()
        sim.schedule_callback(1.0, lambda: None)
        sim.run(until=2.0)
        with pytest.raises(ValueError):
            sim.run_window(1.0)

    def test_window_vs_run_until_boundary(self):
        """run(until=t) is inclusive at t; run_window(t) is exclusive."""
        a, b = Simulator(), Simulator()
        hits_a, hits_b = [], []
        a.schedule_callback(2.0, lambda: hits_a.append(1))
        b.schedule_callback(2.0, lambda: hits_b.append(1))
        a.run(until=2.0)
        b.run_window(2.0)
        assert hits_a == [1] and hits_b == []


class TestShardSet:
    def test_shape_mismatch_rejected(self):
        _, topo = make_topo("single", 4)
        plan = PartitionPlan.from_topology(topo, 2, partitioner="contiguous")
        with pytest.raises(ConfigError):
            ShardSet(plan, [Simulator()], [])


class TestPartitionSpec:
    def test_round_trip(self):
        from repro.scenario.spec import PartitionSpec

        spec = PartitionSpec(shards=4, partitioner="contiguous", seed=3)
        assert PartitionSpec.from_dict(spec.to_dict()) == spec

    def test_defaults(self):
        from repro.scenario.spec import PartitionSpec

        spec = PartitionSpec()
        assert spec.shards == 2
        assert spec.partitioner == "switch_affine"
        assert spec.seed == 0

    def test_processes_key_rejected_at_load(self):
        # Process-per-shard execution is gone; a spec that still asks
        # for it fails at load like any other unknown key.
        from repro.scenario.spec import PartitionSpec

        with pytest.raises(ConfigError, match="processes"):
            PartitionSpec.from_dict({"shards": 2, "processes": True})

    def test_bad_partitioner_rejected(self):
        from repro.scenario.spec import PartitionSpec

        with pytest.raises(ConfigError):
            PartitionSpec(partitioner="hash")

    def test_non_partitionable_kind_rejected(self):
        from dataclasses import replace

        from repro.scenario.spec import PartitionSpec, multicast_point

        spec = multicast_point(n_nodes=8, size=1024, scheme="nb")
        with pytest.raises(ConfigError):
            replace(spec, partition=PartitionSpec(shards=2))

    def test_serving_churn_with_partition_rejected(self):
        from dataclasses import replace

        from repro.scenario.spec import (
            PartitionSpec,
            TrafficSpec,
            serving_point,
        )

        spec = serving_point(
            n_nodes=16, traffic=TrafficSpec(churn_interval_us=1000.0)
        )
        with pytest.raises(ConfigError):
            replace(spec, partition=PartitionSpec(shards=2))

    def test_more_shards_than_nodes_rejected(self):
        from dataclasses import replace

        from repro.scenario.spec import PartitionSpec, unicast_point

        spec = unicast_point()
        with pytest.raises(ConfigError):
            replace(spec, partition=PartitionSpec(shards=64))


class TestPartitionedServing:
    """Smoke-scale serving: serial and sharded runs must land on one
    snapshot (tie-free at this scale)."""

    @staticmethod
    def _spec(shards=2):
        from dataclasses import replace

        from repro.scenario.spec import (
            PartitionSpec,
            TrafficSpec,
            serving_point,
        )

        spec = serving_point(
            n_nodes=16,
            traffic=TrafficSpec(
                duration_us=3_000.0,
                n_groups=4,
                group_size=5,
                rate_per_group=1 / 1_000.0,
                sizes=(4_096,),
                schemes=("nic_based", "host_based"),
                warmup_us=500.0,
            ),
            seed=5,
        )
        if shards is None:
            return spec
        return replace(spec, partition=PartitionSpec(shards=shards))

    def test_inline_matches_serial(self):
        import repro.workload  # noqa: F401
        from repro.scenario import Harness

        serial = Harness(self._spec(shards=None)).run().values[0]
        inline = Harness(self._spec()).run().values[0]
        assert serial.msgs_delivered > 0
        assert inline.snapshot() == serial.snapshot()

    def test_four_shards_match_serial(self):
        import repro.workload  # noqa: F401
        from repro.scenario import Harness

        serial = Harness(self._spec(shards=None)).run().values[0]
        four = Harness(self._spec(shards=4)).run().values[0]
        assert four.snapshot() == serial.snapshot()
