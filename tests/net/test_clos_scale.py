"""Clos fabrics at cluster scale: 256 and 1024 nodes.

The paper's testbed is 16 nodes (one crossbar); these tests pin the
structural invariants of the clusters that outgrow it: route validity
and deterministic link ordering across rebuilds.  Full ``validate()``
walks all ``n * (n - 1)`` pairs — tens of seconds at 256 nodes — so
routing is checked on a structured sample instead: every pair class a
two-level Clos has (same leaf, cross-leaf via each spine, first/last
NICs).
"""

import pytest

from repro.errors import RoutingError
from repro.net import clos
from repro.sim import Simulator

BW = 250.0
LINK_LAT = 0.1
HOP_LAT = 0.3
RADIX = 16
HALF = RADIX // 2  # NICs per leaf, and number of spines


def build(n_nodes):
    sim = Simulator()
    return clos(sim, n_nodes, BW, LINK_LAT, HOP_LAT, radix=RADIX)


def sample_pairs(n_nodes):
    """Every routing-shape class, without the O(n^2) full sweep.

    Same-leaf pairs (2 hops), cross-leaf pairs from each leaf to a
    rotating partner (4 hops via some spine), plus the corner NICs.
    """
    n_leaves = -(-n_nodes // HALF)
    pairs = []
    for leaf in range(n_leaves):
        base = leaf * HALF
        pairs.append((base, min(base + HALF - 1, n_nodes - 1)))  # same leaf
        partner = ((leaf + 1) % n_leaves) * HALF  # neighbouring leaf
        pairs.append((base, partner))
    pairs += [(0, n_nodes - 1), (n_nodes - 1, 0), (n_nodes // 2, 0)]
    return [(s, d) for s, d in pairs if s != d]


@pytest.mark.parametrize("n_nodes", [256, 1024])
class TestClosAtScale:
    def test_shape(self, n_nodes):
        topo = build(n_nodes)
        n_leaves = -(-n_nodes // HALF)
        assert topo.switch_count() == n_leaves + HALF
        # Every cable is two directed links: n NIC cables + full
        # leaf-spine bipartite mesh.
        assert len(topo._links) == 2 * (n_nodes + n_leaves * HALF)

    def test_sampled_routes_valid(self, n_nodes):
        topo = build(n_nodes)
        for src, dst in sample_pairs(n_nodes):
            links = topo.route(src, dst)
            same_leaf = src // HALF == dst // HALF
            assert len(links) == (2 if same_leaf else 4), (src, dst)
            assert topo.route_latency(src, dst) == pytest.approx(
                sum(link.latency for link in links)
            )

    def test_out_of_range_nic_rejected(self, n_nodes):
        topo = build(n_nodes)
        with pytest.raises(RoutingError):
            topo.route(0, n_nodes)

    def test_link_ordering_deterministic(self, n_nodes):
        """Two builds wire identically, cable for cable, in order.

        Route searches visit neighbours in cabling order; a
        nondeterministic build would silently break cross-process
        determinism.
        """
        a, b = build(n_nodes), build(n_nodes)
        assert list(a._links.keys()) == list(b._links.keys())
        assert [link.latency for link in a._links.values()] == [
            link.latency for link in b._links.values()
        ]


def test_spine_dispersion_256():
    """Cross-leaf routes spread over spines rather than funnelling."""
    topo = build(256)
    spines_used = set()
    for src in range(0, 64, 8):
        for dst in range(128, 192, 8):
            mid = topo.route(src, dst)[1]  # leaf -> spine link
            spines_used.add(mid.name)
    assert len(spines_used) > 1
