"""Failure model: spec validation, lifecycle transitions, cache hygiene."""

import pytest

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.errors import ConfigError, RoutingError
from repro.net import Packet, PacketHeader, PacketType
from repro.net.failure import FailureEvent, FailureInjector, FailureSpec


def _cluster(n=16, failures=None, seed=0, topology="clos"):
    return Cluster(ClusterConfig(
        n_nodes=n, seed=seed, topology=topology, failures=failures
    ))


def _packet(src, dst):
    return Packet(header=PacketHeader(
        ptype=PacketType.DATA, src=src, dst=dst, origin=src, payload=8,
    ))


# -- spec validation ---------------------------------------------------------

def test_event_validation():
    with pytest.raises(ConfigError):
        FailureEvent(-1.0, "link_down", 0)
    with pytest.raises(ConfigError):
        FailureEvent(0.0, "link_sideways", 0)
    with pytest.raises(ConfigError):
        FailureEvent(0.0, "link_down", -2)


def test_scheduled_needs_ordered_events():
    with pytest.raises(ConfigError):
        FailureSpec(kind="scheduled", events=(
            FailureEvent(50.0, "link_down", 0),
            FailureEvent(10.0, "link_up", 0),
        ))


def test_scheduled_needs_events_random_needs_rates():
    with pytest.raises(ConfigError):
        FailureSpec(kind="scheduled")
    with pytest.raises(ConfigError):
        FailureSpec(kind="random")  # no mtbf/mttr/count
    with pytest.raises(ConfigError):
        FailureSpec(kind="random", mtbf_us=100.0, mttr_us=10.0, count=1,
                    targets="teapots")


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        FailureSpec.from_dict({"kind": "none", "blast_radius": 3})
    with pytest.raises(ConfigError):
        FailureEvent.from_dict(
            {"time_us": 1.0, "action": "link_down", "target": 0, "x": 1}
        )


def test_cluster_config_round_trip():
    spec = FailureSpec(kind="scheduled", events=(
        FailureEvent(30.0, "link_down", 2),
        FailureEvent(90.0, "link_up", 2),
    ), detect_us=7.5)
    cfg = ClusterConfig(n_nodes=8, failures=spec)
    rebuilt = ClusterConfig.from_dict(cfg.to_dict())
    assert rebuilt.failures == spec
    assert ClusterConfig.from_dict(
        ClusterConfig(n_nodes=8).to_dict()
    ).failures is None


def test_scheduled_target_bounds_checked_at_schedule_time():
    cluster = _cluster(4)
    spec = FailureSpec(kind="scheduled", events=(
        FailureEvent(1.0, "link_down", 10_000),
    ))
    with pytest.raises(ConfigError):
        spec.schedule(cluster.topology, None)


# -- lifecycle: version bumps and cache invalidation -------------------------

def test_link_down_bumps_version_and_invalidates_route_memo():
    cluster = _cluster(32)
    topo = cluster.topology
    net = cluster.network
    cable = topo.nic_cable_index(5)

    # Warm both memo layers.
    route_before = topo.route(1, 5)
    topo.route_latency(1, 5)
    assert topo._route_cache and topo._latency_cache
    assert net._routes[(1, 5)] is route_before
    v0 = topo.version

    assert topo.set_link_state(cable, up=False) is True
    assert topo.version == v0 + 1
    assert not topo._route_cache, "route memo survived a failure"
    assert not topo._latency_cache, "latency memo survived a failure"
    assert not topo._bfs_cache, "BFS memo survived a failure"
    with pytest.raises(RoutingError):
        topo.route(1, 5)

    # The fabric's next lookup misses too, and routes on the failed
    # fabric: the packet is dropped at injection as unroutable instead
    # of taking the pre-failure route into the dead cable.
    assert (1, 5) not in net._routes
    net.inject(_packet(1, 5))
    assert net.failure_dropped == 1

    assert topo.set_link_state(cable, up=True) is True
    assert topo.version == v0 + 2
    assert (1, 5) not in net._routes
    net.inject(_packet(1, 5))
    assert net.failure_dropped == 1
    assert net._routes[(1, 5)] == route_before
    assert topo.route(1, 5) == route_before


def test_transitions_idempotent():
    cluster = _cluster(8)
    topo = cluster.topology
    cable = topo.nic_cable_index(3)
    v0 = topo.version
    assert topo.set_link_state(cable, up=False) is True
    assert topo.set_link_state(cable, up=False) is False  # no-op
    assert topo.version == v0 + 1
    assert topo.set_link_state(cable, up=True) is True
    assert topo.set_link_state(cable, up=True) is False
    assert topo.version == v0 + 2


def test_switch_down_disconnects_and_recovers():
    cluster = _cluster(64)  # 64-node clos: leaf + spine switches
    topo = cluster.topology
    assert topo.has_path(0, 63)
    assert topo.set_switch_state(0, up=False) is True
    # NICs homed on switch 0 lose all connectivity.
    assert not topo.has_path(0, 63)
    assert topo.set_switch_state(0, up=True) is True
    assert topo.has_path(0, 63)


# -- injector ----------------------------------------------------------------

def test_injector_applies_at_event_time_and_notifies_at_detection():
    spec = FailureSpec(kind="scheduled", events=(
        FailureEvent(50.0, "link_down", 0),
        FailureEvent(200.0, "link_up", 0),
    ), detect_us=5.0)
    cluster = _cluster(8, failures=spec)
    topo = cluster.topology
    heard = []
    assert isinstance(cluster.failures, FailureInjector)
    cluster.failures.subscribe(
        lambda ev: heard.append((cluster.now, ev.action))
    )
    a, b = topo.cables()[0]

    assert topo.link_is_up(a, b)
    cluster.run(until=100.0)
    assert not topo.link_is_up(a, b)
    cluster.run(until=300.0)
    assert topo.link_is_up(a, b)
    assert heard == [(55.0, "link_down"), (205.0, "link_up")]
    assert cluster.failures.transitions == 2


def test_random_schedule_is_seed_deterministic():
    spec = FailureSpec(
        kind="random", mtbf_us=500.0, mttr_us=100.0, count=3,
        targets="nic_links",
    )
    runs = []
    for _ in range(2):
        cluster = _cluster(16, failures=spec, seed=42)
        runs.append(cluster.failures.events)
    assert runs[0] == runs[1]
    assert len(runs[0]) == 6  # 3 downs, 3 paired ups
    other = _cluster(16, failures=spec, seed=43)
    assert other.failures.events != runs[0]
