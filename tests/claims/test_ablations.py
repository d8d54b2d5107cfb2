"""Bench: ablations of the design choices DESIGN.md calls out.

* Tree shape: the postal-model optimal tree vs binomial/chain/flat
  under NIC forwarding, across the three size regimes.
* Scheme decomposition: how much of the win is multisend vs forwarding
  (NIC-assisted = multisend only, host forwarding).
* Cost-model sensitivity: a faster host shrinks the win, a slower NIC
  shrinks it too — the mechanism lives in the host/NIC cost ratio.
"""

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.experiments.runner import measure_gm_multicast
from repro.gm.params import GMCostModel


def test_tree_shape_ablation():
    def sweep():
        rows = {}
        for size in (64, 4096, 16384):
            rows[size] = {
                shape: measure_gm_multicast(
                    16, size, "nb", iterations=6, warmup=2,
                    tree_shape=shape,
                ).latency
                for shape in ("optimal", "binomial", "chain", "flat")
            }
        return rows

    rows = sweep()
    print()
    print(f"{'size':>7} {'optimal':>9} {'binomial':>9} {'chain':>9} {'flat':>9}")
    for size, by_shape in rows.items():
        print(f"{size:>7} " + " ".join(
            f"{by_shape[s]:>9.1f}" for s in ("optimal", "binomial", "chain", "flat")
        ))
    # The size-adapted optimal tree is never (meaningfully) worse than
    # any fixed shape, at any size.
    for size, by_shape in rows.items():
        best_fixed = min(
            by_shape["binomial"], by_shape["chain"], by_shape["flat"]
        )
        assert by_shape["optimal"] <= best_fixed * 1.10, size
    # And the fixed shapes each lose somewhere: flat loses at 16 KB,
    # chain loses at small sizes.
    assert rows[16384]["flat"] > 2 * rows[16384]["optimal"]
    assert rows[64]["chain"] > 2 * rows[64]["optimal"]


def test_scheme_decomposition():
    """multisend-only (NIC-assisted) sits between host-based and the
    full scheme: forwarding is what wins on deep trees."""

    def sweep():
        out = {}
        for size in (64, 8192):
            out[size] = {
                scheme: measure_gm_multicast(
                    16, size, scheme, iterations=6, warmup=2
                ).latency
                for scheme in ("hb", "nic_assisted", "nb")
            }
        return out

    rows = sweep()
    print()
    print(f"{'size':>7} {'host-based':>11} {'nic-assisted':>13} {'nic-based':>10}")
    for size, r in rows.items():
        print(f"{size:>7} {r['hb']:>11.1f} {r['nic_assisted']:>13.1f} "
              f"{r['nb']:>10.1f}")
        assert r["nb"] < r["nic_assisted"] <= r["hb"] * 1.02, size


def test_cost_model_sensitivity():
    def factor(cost):
        hb = measure_gm_multicast(8, 256, "hb", iterations=5, warmup=2,
                                  cost=cost)
        nb = measure_gm_multicast(8, 256, "nb", iterations=5, warmup=2,
                                  cost=cost)
        return hb.latency / nb.latency

    def sweep():
        return {
            "lanai9": factor(GMCostModel.lanai9()),
            "fast_host": factor(GMCostModel.fast_host()),
            "slow_nic": factor(GMCostModel.slow_nic()),
        }

    factors = sweep()
    print()
    for name, f in factors.items():
        print(f"  {name:10s}: improvement factor {f:.2f}")
    # A faster host narrows the gap the NIC scheme exploits.
    assert factors["fast_host"] < factors["lanai9"]
    # A slower NIC makes NIC-side replication/forwarding costlier too.
    assert factors["slow_nic"] < factors["lanai9"] * 1.6
    # The scheme still wins in every regime.
    assert all(f > 1.0 for f in factors.values())
