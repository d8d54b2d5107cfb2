"""Unit tests for topologies, routing, and the fabric timing model."""

import zlib

import pytest

from repro.errors import ConfigError, RoutingError
from repro.net import (
    Network,
    Packet,
    PacketHeader,
    PacketType,
    clos,
    from_graph,
    line,
    single_switch,
)
from repro.sim import Simulator

BW = 250.0  # B/us
LINK_LAT = 0.1
HOP_LAT = 0.2


def make_topo(kind, n, **kw):
    sim = Simulator()
    builder = {"single": single_switch, "clos": clos, "line": line}[kind]
    return sim, builder(sim, n, BW, LINK_LAT, HOP_LAT, **kw)


def data_packet(src, dst, payload=100):
    return Packet(
        header=PacketHeader(
            ptype=PacketType.DATA, src=src, dst=dst, origin=src, payload=payload
        )
    )


class TestSingleSwitch:
    def test_every_pair_routable(self):
        _, topo = make_topo("single", 8)
        topo.validate()

    def test_two_links_per_route(self):
        _, topo = make_topo("single", 4)
        assert topo.hops(0, 3) == 2

    def test_route_to_self_rejected(self):
        _, topo = make_topo("single", 4)
        with pytest.raises(RoutingError):
            topo.route(2, 2)

    def test_unknown_nic_rejected(self):
        _, topo = make_topo("single", 4)
        with pytest.raises(RoutingError):
            topo.route(0, 10)

    def test_route_cached_identity(self):
        _, topo = make_topo("single", 4)
        assert topo.route(0, 1) is topo.route(0, 1)

    def test_single_node_topology(self):
        _, topo = make_topo("single", 1)
        assert topo.n_nodes == 1


class TestClos:
    def test_small_collapses_to_single_switch(self):
        _, topo = make_topo("clos", 16)
        assert topo.switch_count() == 1
        assert topo.name == "single-switch"

    def test_32_nodes_two_level(self):
        _, topo = make_topo("clos", 32)
        # 4 leaves (8 hosts each) + 8 spines.
        assert topo.switch_count() == 12
        topo.validate()

    def test_same_leaf_is_two_hops(self):
        _, topo = make_topo("clos", 32)
        assert topo.hops(0, 1) == 2

    def test_cross_leaf_is_four_hops(self):
        _, topo = make_topo("clos", 32)
        assert topo.hops(0, 31) == 4

    def test_odd_radix_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigError):
            clos(sim, 32, BW, LINK_LAT, HOP_LAT, radix=15)

    def test_64_nodes_routable(self):
        _, topo = make_topo("clos", 64)
        topo.validate()


class TestLine:
    def test_diameter_grows(self):
        _, topo = make_topo("line", 16, nodes_per_switch=4)
        assert topo.hops(0, 15) > topo.hops(0, 3)

    def test_all_routable(self):
        _, topo = make_topo("line", 12, nodes_per_switch=4)
        topo.validate()


class TestFromGraph:
    def test_custom_fabric(self):
        sim = Simulator()
        topo = from_graph(
            sim,
            nic_to_switch={0: 0, 1: 0, 2: 1, 3: 1},
            switch_edges=[(0, 1)],
            bandwidth=BW,
            link_latency=LINK_LAT,
            hop_latency=HOP_LAT,
        )
        topo.validate()
        assert topo.hops(0, 1) == 2
        assert topo.hops(0, 3) == 3

    def test_bad_nic_ids_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigError):
            from_graph(sim, {1: 0, 2: 0}, [], BW, LINK_LAT, HOP_LAT)


class TestNetworkTiming:
    def delivery_time(self, n_nodes, payload, src=0, dst=1, kind="single"):
        sim, topo = make_topo(kind, n_nodes)
        net = Network(sim, topo)
        arrivals = []
        for i in range(n_nodes):
            net.attach(i, (lambda p, _i=i: arrivals.append((sim.now, _i, p))))
        net.inject(data_packet(src, dst, payload))
        sim.run()
        assert len(arrivals) == 1
        return arrivals[0][0]

    def test_min_latency_formula_single_switch(self):
        # 2 links: each pays link latency; switch-entering link pays
        # hop latency too; serialization paid once (cut-through).
        payload = 1000
        wire = payload + 16
        expected = (LINK_LAT + HOP_LAT) + LINK_LAT + wire / BW
        assert self.delivery_time(4, payload) == pytest.approx(expected)

    def test_min_latency_helper_agrees_with_traversal(self):
        sim, topo = make_topo("single", 4)
        net = Network(sim, topo)
        arrivals = []
        for i in range(4):
            net.attach(i, lambda p: arrivals.append(sim.now))
        pkt = data_packet(0, 2, 500)
        net.inject(pkt)
        sim.run()
        assert arrivals[0] == pytest.approx(net.min_latency(0, 2, pkt.wire_size))

    def test_larger_packets_take_longer(self):
        t_small = self.delivery_time(4, 1)
        t_big = self.delivery_time(4, 4096)
        assert t_big > t_small
        assert t_big - t_small == pytest.approx(4095 / BW)

    def test_contention_serializes_on_shared_link(self):
        # Two packets from the same source to the same destination share
        # the source's injection link: second is delayed by one
        # serialization time.
        sim, topo = make_topo("single", 4)
        net = Network(sim, topo)
        arrivals = []
        for i in range(4):
            net.attach(i, lambda p: arrivals.append(sim.now))
        p1 = data_packet(0, 1, 4096)
        p2 = data_packet(0, 1, 4096)
        net.inject(p1)
        net.inject(p2)
        sim.run()
        ser = p1.wire_size / BW
        assert arrivals[1] - arrivals[0] == pytest.approx(ser)

    def test_disjoint_paths_parallel(self):
        # 0->1 and 2->3 share no link: both arrive at min latency.
        sim, topo = make_topo("single", 4)
        net = Network(sim, topo)
        arrivals = {}
        for i in range(4):
            net.attach(i, lambda p, _i=i: arrivals.setdefault(_i, sim.now))
        net.inject(data_packet(0, 1, 4096))
        net.inject(data_packet(2, 3, 4096))
        sim.run()
        assert arrivals[1] == pytest.approx(arrivals[3])

    def test_cross_leaf_slower_than_same_leaf(self):
        t_near = self.delivery_time(32, 100, src=0, dst=1, kind="clos")
        t_far = self.delivery_time(32, 100, src=0, dst=31, kind="clos")
        assert t_far > t_near

    def test_inject_to_unattached_nic_raises(self):
        sim, topo = make_topo("single", 4)
        net = Network(sim, topo)
        net.attach(0, lambda p: None)
        with pytest.raises(RoutingError):
            net.inject(data_packet(0, 1))

    def test_double_attach_rejected(self):
        sim, topo = make_topo("single", 4)
        net = Network(sim, topo)
        net.attach(0, lambda p: None)
        with pytest.raises(ValueError):
            net.attach(0, lambda p: None)

    def test_link_accounting(self):
        sim, topo = make_topo("single", 2)
        net = Network(sim, topo)
        net.attach(0, lambda p: None)
        net.attach(1, lambda p: None)
        pkt = data_packet(0, 1, 1000)
        net.inject(pkt)
        sim.run()
        carried = [l for l in topo.all_links() if l.packets_carried]
        assert len(carried) == 2  # nic->switch, switch->nic
        assert all(l.bytes_carried == pkt.wire_size for l in carried)


class TestDispersiveRouting:
    def test_clos_routes_spread_across_spines(self):
        # Myrinet-style static dispersion: different pairs crossing
        # leaves should not all share one spine uplink.
        sim = Simulator()
        topo = clos(sim, 32, BW, LINK_LAT, HOP_LAT)
        # All 8 hosts of leaf 0 to the corresponding hosts of leaf 3.
        middle_links = set()
        for src in range(8):
            dst = 24 + src
            links = topo.route(src, dst)
            assert len(links) == 4
            middle_links.add(links[1].name)  # leaf -> spine uplink
        assert len(middle_links) >= 4  # spread, not funneled

    def test_routes_still_deterministic(self):
        def route_names(seed_unused):
            sim = Simulator()
            topo = clos(sim, 32, BW, LINK_LAT, HOP_LAT)
            return [l.name for l in topo.route(0, 31)]

        assert route_names(0) == route_names(1)


def _reference_routes(topo, src):
    """Route by one breadth-first search from NIC *src* itself, as the
    topology did before it searched per switch: every shortest path,
    sorted, one picked by ``crc32``.  Maps each NIC *src* reaches to
    its node path."""
    source = ("nic", src)
    preds = {source: []}
    frontier = [source]
    while frontier:
        level = {}
        for u in frontier:
            for v in topo.neighbors(u):
                if v not in preds and topo.link_is_up(u, v):
                    level.setdefault(v, []).append(u)
        preds.update(level)
        frontier = list(level)
    routes = {}
    for dst in range(topo.n_nodes):
        if dst == src or ("nic", dst) not in preds:
            continue
        paths = [[("nic", dst)]]
        while paths[0][-1] != source:
            paths = [path + [u] for path in paths for u in preds[path[-1]]]
        paths = sorted(path[::-1] for path in paths)
        routes[dst] = paths[zlib.crc32(f"{src}->{dst}".encode()) % len(paths)]
    return routes


def _grid(sim):
    """3×4 switch grid, two NICs per switch: many equal-cost paths."""
    edges = [(s, s + 1) for s in range(12) if s % 4 != 3]
    edges += [(s, s + 4) for s in range(8)]
    placement = {nic: nic // 2 for nic in range(24)}
    return from_graph(sim, placement, edges, BW, LINK_LAT, HOP_LAT)


class TestRouteMemo:
    """One memoized search per switch, against a per-NIC reference."""

    @pytest.mark.parametrize("build", ["grid", "clos"])
    def test_every_pair_matches_per_nic_search(self, build):
        sim = Simulator()
        topo = _grid(sim) if build == "grid" else clos(
            sim, 64, BW, LINK_LAT, HOP_LAT
        )
        ends = {link: key for key, link in topo._links.items()}
        switch_cables = [
            i for i, (a, b) in enumerate(topo.cables()) if a[0] == b[0]
        ]
        states = [
            ([], []),
            (switch_cables[1:4], []),
            ([topo.nic_cable_index(3)], []),
            ([], [1]),
        ]
        for cables, switches in states:
            for cable in cables:
                topo.set_link_state(cable, up=False)
            for switch in switches:
                topo.set_switch_state(switch, up=False)
            for src in range(topo.n_nodes):
                want = _reference_routes(topo, src)
                for dst in range(topo.n_nodes):
                    if src == dst:
                        continue
                    assert topo.has_path(src, dst) == (dst in want)
                    if dst not in want:
                        with pytest.raises(
                            RoutingError,
                            match=f"^no path from NIC {src} to NIC {dst}$",
                        ):
                            topo.route(src, dst)
                        continue
                    links = topo.route(src, dst)
                    got = [ends[link][0] for link in links]
                    assert got + [ends[links[-1]][1]] == want[dst]
            for cable in cables:
                topo.set_link_state(cable, up=True)
            for switch in switches:
                topo.set_switch_state(switch, up=True)

    def test_one_search_per_switch_with_shared_predecessors(self):
        _, topo = make_topo("clos", 64)
        topo.validate()  # routes every ordered pair
        assert len(topo._bfs_cache) <= topo.switch_count()
        # Only the eight leaves have NICs, so only they are searched from.
        assert set(topo._bfs_cache) == {("switch", s) for s in range(8)}
        preds = [
            t for search in topo._bfs_cache.values() for t in search.values()
        ]
        assert len({id(t) for t in preds}) == len(set(preds))

    def test_cable_invalidates_route_cache(self):
        _, topo = make_topo("line", 6, nodes_per_switch=2)
        before = topo.route(0, 5)
        hops_before = len(before)
        topo.cable(("switch", 0), ("switch", 2))
        after = topo.route(0, 5)
        assert after is not before
        assert len(after) < hops_before  # the shortcut is used

    def test_network_route_cache_follows_version(self):
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

    def test_second_cable_at_a_nic_rejected(self):
        _, topo = make_topo("clos", 32)
        version = topo.version
        for a, b in (
            (("nic", 0), ("switch", 1)),
            (("switch", 1), ("nic", 0)),
            (("nic", 0), ("nic", 1)),
        ):
            with pytest.raises(ConfigError, match="NIC 0 already has a cable"):
                topo.cable(a, b)
        assert topo.neighbors(("nic", 0)) == [("switch", 0)]
        assert topo.version == version
