"""Unit tests for ClusterConfig and the Cluster façade."""

import pytest

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.errors import ConfigError
from repro.gm.params import GMCostModel
from repro.host import Host, Node


class TestConfig:
    def test_defaults_match_paper_testbed(self):
        cfg = ClusterConfig()
        assert cfg.n_nodes == 16
        assert cfg.topology == "clos"
        assert cfg.cost.mtu == 4096

    def test_bad_n_nodes(self):
        with pytest.raises(ConfigError):
            ClusterConfig(n_nodes=0)

    def test_bad_topology(self):
        with pytest.raises(ConfigError):
            ClusterConfig(topology="torus")

    def test_prepost_bounded_by_tokens(self):
        with pytest.raises(ConfigError):
            ClusterConfig(
                prepost_recv_tokens=100,
                cost=GMCostModel(recv_tokens_per_port=64),
            )

    def test_frozen(self):
        cfg = ClusterConfig()
        with pytest.raises(AttributeError):
            cfg.n_nodes = 3  # type: ignore[misc]


class TestCluster:
    def test_builds_nodes_and_ports(self):
        cluster = Cluster(ClusterConfig(n_nodes=4))
        assert cluster.n_nodes == 4
        assert isinstance(cluster.node(2), Node)
        assert cluster.port(3).port_num == 0
        assert cluster.port(0).free_recv_tokens == 64

    def test_closed_cluster_refuses_to_run(self):
        with Cluster(ClusterConfig(n_nodes=4)) as cluster:
            port = cluster.port(0)

            def send():
                handle = yield from port.send(1, 64)
                yield handle.done

            cluster.run(until=cluster.spawn(send()))
        with pytest.raises(RuntimeError, match="closed simulator"):
            cluster.run()
        cluster.close()  # closing twice is harmless

    def test_single_topology_selected(self):
        cluster = Cluster(ClusterConfig(n_nodes=4, topology="single"))
        assert cluster.topology.switch_count() == 1

    def test_clos_collapses_below_radix(self):
        cluster = Cluster(ClusterConfig(n_nodes=16, topology="clos"))
        assert cluster.topology.switch_count() == 1

    def test_clos_expands_above_radix(self):
        cluster = Cluster(ClusterConfig(n_nodes=24, topology="clos"))
        assert cluster.topology.switch_count() > 1

    def test_line_topology(self):
        cluster = Cluster(ClusterConfig(n_nodes=8, topology="line"))
        assert cluster.topology.name == "line"

    def test_spawn_on_all(self):
        cluster = Cluster(ClusterConfig(n_nodes=3))
        visited = []

        def program(node):
            yield cluster.sim.timeout(float(node.id))
            visited.append(node.id)

        procs = cluster.spawn_on_all(program)
        cluster.run(until=cluster.sim.all_of(procs))
        assert sorted(visited) == [0, 1, 2]

    def test_each_node_has_engines(self):
        cluster = Cluster(ClusterConfig(n_nodes=2))
        node = cluster.node(0)
        assert node.gm is not None
        assert node.mcast is not None
        assert isinstance(node.host, Host)
        assert node.memory.owner == 0

    def test_deterministic_given_seed(self):
        def run(seed):
            cluster = Cluster(ClusterConfig(n_nodes=3, seed=seed))
            values = [cluster.sim.rng("x").random() for _ in range(5)]
            return values

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_now_property(self):
        cluster = Cluster(ClusterConfig(n_nodes=2))
        assert cluster.now == 0.0
        cluster.run(until=5.0)
        assert cluster.now == 5.0


class TestHost:
    def test_compute_accounts_time(self):
        cluster = Cluster(ClusterConfig(n_nodes=1))
        host = cluster.node(0).host

        def prog():
            yield from host.compute(12.5)

        cluster.run(until=cluster.spawn(prog()))
        assert host.compute_time == pytest.approx(12.5)
        assert cluster.now == pytest.approx(12.5)

    def test_zero_compute_is_noop(self):
        cluster = Cluster(ClusterConfig(n_nodes=1))
        host = cluster.node(0).host

        def prog():
            yield from host.compute(0.0)
            yield cluster.sim.timeout(1.0)

        cluster.run(until=cluster.spawn(prog()))
        assert host.compute_time == 0.0

    def test_negative_compute_rejected(self):
        cluster = Cluster(ClusterConfig(n_nodes=1))
        host = cluster.node(0).host
        with pytest.raises(ValueError):
            list(host.compute(-1.0))

    def test_blocked_accounting(self):
        cluster = Cluster(ClusterConfig(n_nodes=1))
        host = cluster.node(0).host
        host.charge_blocked(3.0)
        host.charge_blocked(4.0)
        assert host.blocked_time == 7.0
        host.reset_accounting()
        assert host.blocked_time == 0.0
        assert host.compute_time == 0.0

    def test_cpu_contention_serializes(self):
        cluster = Cluster(ClusterConfig(n_nodes=1))
        host = cluster.node(0).host
        ends = []

        def prog(tag):
            yield from host.compute(10.0)
            ends.append((tag, cluster.now))

        a = cluster.spawn(prog("a"))
        b = cluster.spawn(prog("b"))
        cluster.run(until=cluster.sim.all_of([a, b]))
        assert ends == [("a", 10.0), ("b", 20.0)]
