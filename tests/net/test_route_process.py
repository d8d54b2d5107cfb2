"""Routes do not depend on the process that computes them.

Each benchmark pass is a fresh process with its own string-hash seed, so
nothing whose order depends on hashing may decide a route.  The router
also needs no third-party package: a simulator process loads neither
networkx nor numpy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: A 64-node Clos with two spine cables and one leaf switch down; prints
#: a digest of every pair's route and the heavy modules loaded.
SCRIPT = r"""
import hashlib, json, sys
from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.errors import RoutingError

topo = Cluster(ClusterConfig(n_nodes=64)).topology
spine_cables = [
    i for i, (a, b) in enumerate(topo.cables()) if a[0] == b[0] == "switch"
]
topo.set_link_state(spine_cables[5], up=False)
topo.set_link_state(spine_cables[40], up=False)
topo.set_switch_state(2, up=False)
ends = {link: key for key, link in topo._links.items()}
digest = hashlib.sha256()
for src in range(64):
    for dst in range(64):
        if src == dst:
            continue
        try:
            hops = [ends[link][1] for link in topo.route(src, dst)]
        except RoutingError:
            hops = None
        digest.update(repr((src, dst, hops)).encode())
print(json.dumps({
    "digest": digest.hexdigest(),
    "loaded": [m for m in ("networkx", "numpy") if m in sys.modules],
}))
"""


def _run(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, check=True,
        capture_output=True, text=True, timeout=120,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_routes_identical_across_hash_seeds_without_networkx():
    first, second = _run("1"), _run("2")
    assert first["digest"] == second["digest"]
    assert first["loaded"] == second["loaded"] == []
