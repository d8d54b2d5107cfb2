"""Golden routes: the chosen path of sampled NIC pairs, pinned per fabric.

``golden_routes.json`` was generated with the networkx
``all_shortest_paths`` router that the topology's own breadth-first
search replaced.  For four fabrics (two Clos sizes, a switch chain and
a grid mesh with many equal-cost paths) and seven failure states, it
pins each sampled pair's chosen node path, the :meth:`Topology.has_path`
answer, and whether :meth:`Topology.route` raises ``RoutingError``.

The states are applied in order on one topology and healed after each,
so a memo that survives a transition shows up as a wrong route in a
later state.  Regenerate only deliberately::

    PYTHONPATH=src python tests/net/test_route_golden.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.errors import RoutingError
from repro.net import clos, from_graph, line
from repro.sim import Simulator

FIXTURE = Path(__file__).with_name("golden_routes.json")

BW, LINK_LAT, HOP_LAT = 250.0, 0.1, 0.2
#: Pairs drawn per state: half touch the failed elements, half anywhere.
PAIRS_PER_STATE = 40


def _grid(sim):
    """3×4 switch grid, two NICs per switch: up to 10 equal-cost paths."""
    rows, cols = 3, 4
    edges = []
    for r in range(rows):
        for c in range(cols):
            s = r * cols + c
            if c + 1 < cols:
                edges.append((s, s + 1))
            if r + 1 < rows:
                edges.append((s, s + cols))
    placement = {nic: nic // 2 for nic in range(2 * rows * cols)}
    return from_graph(sim, placement, edges, BW, LINK_LAT, HOP_LAT)


#: name -> (builder, spine-like switch, leaf-like switch)
FABRICS = {
    "clos64": (lambda sim: clos(sim, 64, BW, LINK_LAT, HOP_LAT), 9, 3),
    "clos256": (lambda sim: clos(sim, 256, BW, LINK_LAT, HOP_LAT), 35, 17),
    "line12": (lambda sim: line(sim, 12, BW, LINK_LAT, HOP_LAT), 1, 2),
    "grid24": (_grid, 5, 0),
}

#: (state name, switch-switch cables down, NIC cable down, switch down)
STATES = (
    ("none", 0, False, None),
    ("switch_cables_1", 1, False, None),
    ("switch_cables_2", 2, False, None),
    ("switch_cables_3", 3, False, None),
    ("nic_cable", 0, True, None),
    ("spine_switch", 0, False, "spine"),
    ("leaf_switch", 0, False, "leaf"),
)


def _observe(topo, ends, src: int, dst: int, has_path_first: bool) -> str:
    """``src dst has_path path``, the path as ``s0.s8.s3`` (the nodes
    strictly between the two NICs) or ``-`` for ``RoutingError``."""
    if has_path_first:
        reachable = topo.has_path(src, dst)
    try:
        nodes = [ends[link][1] for link in topo.route(src, dst)[:-1]]
        path = ".".join(f"{kind[0]}{idx}" for kind, idx in nodes)
    except RoutingError:
        path = "-"
    if not has_path_first:
        reachable = topo.has_path(src, dst)
    return f"{src} {dst} {int(reachable)} {path}"


def _draw_states(name: str, topo) -> list[dict]:
    """The failure states and sampled pairs of one fabric (seeded)."""
    _, spine, leaf = FABRICS[name]
    rng = random.Random(f"golden-routes:{name}")
    cables = topo.cables()
    switch_cables = [
        i for i, (a, b) in enumerate(cables)
        if a[0] == b[0] == "switch"
    ]
    states = []
    for state, n_cables, nic_cable, switch in STATES:
        down_cables = sorted(rng.sample(
            switch_cables, min(n_cables, len(switch_cables))
        ))
        down_switches = []
        focus_switches = {
            end[1] for i in down_cables for end in cables[i]
        }
        focus_nics = set()
        if nic_cable:
            nic = rng.randrange(topo.n_nodes)
            down_cables.append(topo.nic_cable_index(nic))
            focus_nics.add(nic)
        if switch is not None:
            down_switches.append(spine if switch == "spine" else leaf)
            focus_switches.add(down_switches[0])
        for nic in range(topo.n_nodes):
            attached = {b[1] for a, b in cables if a == ("nic", nic)}
            if attached & focus_switches:
                focus_nics.add(nic)
        focus = sorted(focus_nics) or list(range(topo.n_nodes))
        pairs = []
        while len(pairs) < PAIRS_PER_STATE:
            if len(pairs) % 2:
                src, dst = rng.sample(range(topo.n_nodes), 2)
            else:
                src = rng.choice(focus)
                dst = rng.choice([n for n in range(topo.n_nodes) if n != src])
                if rng.random() < 0.5:
                    src, dst = dst, src
            pairs.append((src, dst))
        states.append({
            "state": state,
            "down_cables": down_cables,
            "down_switches": down_switches,
            "pairs": pairs,
        })
    return states


def _replay(name: str, states: list[dict]) -> list[list[str]]:
    """Apply each state in order, observe its pairs, heal, next."""
    topo = FABRICS[name][0](Simulator())
    ends = {link: key for key, link in topo._links.items()}
    observed = []
    for state in states:
        for cable in state["down_cables"]:
            assert topo.set_link_state(cable, up=False)
        for switch in state["down_switches"]:
            assert topo.set_switch_state(switch, up=False)
        observed.append([
            _observe(topo, ends, src, dst, has_path_first=bool(i % 2))
            for i, (src, dst) in enumerate(state["pairs"])
        ])
        for cable in state["down_cables"]:
            topo.set_link_state(cable, up=True)
        for switch in state["down_switches"]:
            topo.set_switch_state(switch, up=True)
    return observed


def _generate() -> dict:
    fixture = {}
    for name, (build, _, _) in FABRICS.items():
        states = _draw_states(name, build(Simulator()))
        for state, routes in zip(states, _replay(name, states)):
            state["routes"] = routes
            del state["pairs"]
        fixture[name] = states
    return fixture


def _pairs(routes: list[str]) -> list[tuple[int, int]]:
    return [tuple(int(x) for x in r.split()[:2]) for r in routes]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_fabric_state_and_outcome(golden):
    assert sorted(golden) == sorted(FABRICS)
    records = [
        r for states in golden.values() for s in states for r in s["routes"]
    ]
    assert len(records) >= 800
    assert any(r.endswith(" -") for r in records), "no RoutingError pinned"
    for name, states in golden.items():
        assert [s["state"] for s in states] == [s[0] for s in STATES], name


@pytest.mark.parametrize("name", sorted(FABRICS))
def test_routes_match_golden(golden, name):
    states = golden[name]
    replay = [
        {**state, "pairs": _pairs(state["routes"])} for state in states
    ]
    for state, observed in zip(states, _replay(name, replay)):
        for want, got in zip(state["routes"], observed):
            assert got == want, f"{name}/{state['state']}"


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(_generate(), indent=1) + "\n")
    print(f"wrote {FIXTURE}")
