"""Serving-workload tests: determinism, stats, churn, obs integration,
and a 256-node run pinned against its fixture."""

import json
from pathlib import Path

import pytest

import repro.workload  # noqa: F401  (registers the serving runner)
from repro.gm.params import GMCostModel
from repro.obs.health import serving_section
from repro.obs.registry import MetricsRegistry
from repro.scenario import Harness, TrafficSpec, serving_point


def _small_spec(**traffic_overrides):
    traffic = dict(
        duration_us=8_000.0,
        n_groups=3,
        group_size=3,
        rate_per_group=1 / 400.0,
        sizes=(1_024, 4_096),
        schemes=("nic_based", "nic_multisend", "host_based"),
        churn_interval_us=1_500.0,
        warmup_us=1_000.0,
    )
    traffic.update(traffic_overrides)
    return serving_point(
        n_nodes=8, traffic=TrafficSpec(**traffic), seed=7, name="t-serving"
    )


def test_pinned_seed_runs_are_bit_identical():
    """Two runs of the same spec+seed produce identical snapshots."""
    first = Harness(_small_spec()).run().values[0]
    second = Harness(_small_spec()).run().values[0]
    assert first.snapshot() == second.snapshot()
    assert first.latencies_us == second.latencies_us


def test_different_seed_changes_the_schedule():
    base = Harness(_small_spec()).run().values[0]
    spec = _small_spec()
    reseeded = serving_point(
        n_nodes=8, traffic=spec.traffic, seed=8, name="t-serving"
    )
    other = Harness(reseeded).run().values[0]
    assert base.snapshot() != other.snapshot()


def test_serving_stats_shape():
    stats = Harness(_small_spec()).run().values[0]
    assert stats.msgs_posted > 0
    assert stats.msgs_delivered > 0
    assert stats.n_groups == 3
    assert set(stats.per_group) == {0, 1, 2}
    # Schemes cycle across groups through the registry.
    assert [g.scheme for g in stats.per_group.values()] == [
        "nic_based", "nic_multisend", "host_based",
    ]
    # Every measured delivery is accounted in the latency list.
    assert len(stats.latencies_us) == stats.msgs_delivered
    assert stats.quantile(0.99) >= stats.quantile(0.50) > 0.0
    # Churn was scheduled and applied (epochs recorded per group).
    assert stats.churn_events > 0
    assert sum(g.churn_epochs for g in stats.per_group.values()) > 0


def test_metrics_registry_feeds_serving_section():
    registry = MetricsRegistry()
    stats = Harness(_small_spec(), registry=registry).run().values[0]
    section = serving_section(registry)
    assert section is not None
    assert section["serving.msgs_posted"] == stats.msgs_posted
    assert section["serving.msgs_delivered"] == stats.msgs_delivered
    assert section["delivery_us"]["count"] == stats.msgs_delivered
    assert section["delivered_msgs_per_sec"] == pytest.approx(
        stats.delivered_msgs_per_sec
    )
    # One-shot runs (no serving.* instruments) produce no section.
    assert serving_section(MetricsRegistry()) is None


def test_trace_arrivals_replay_exactly():
    spec = _small_spec(
        arrival="trace",
        rate_per_group=1e-3,
        trace_arrivals=((100.0, 0), (200.0, 1), (300.0, 0)),
        churn_interval_us=0.0,
        warmup_us=0.0,
    )
    stats = Harness(spec).run().values[0]
    assert stats.per_group[0].posted == 2
    assert stats.per_group[1].posted == 1
    assert stats.per_group[2].posted == 0


# ---------------------------------------------------------------------------
# 256-node long-cable serving: a two-level Clos, 96 groups over all four
# schemes.  Every count and reported quantile is pinned in
# ``golden_clos256_serving.json``; the fixture leaves out ``sim_events``
# and the per-group mean and max delivery times.
# ---------------------------------------------------------------------------

CLOS256_FIXTURE = Path(__file__).with_name("golden_clos256_serving.json")


def _clos256_snapshot():
    """The serving snapshot of the 256-node long-cable spec."""
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
    return Harness(spec).run().values[0].snapshot()


def _pinned_view(snap):
    """*snap* without what the fixture leaves out, as its JSON form."""
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


def test_clos256_serving_counts_and_quantiles_match_fixture():
    expected = json.loads(CLOS256_FIXTURE.read_text())
    assert expected["msgs_delivered"] > 0
    assert _pinned_view(_clos256_snapshot()) == expected


if __name__ == "__main__":  # fixture regeneration entry point
    CLOS256_FIXTURE.write_text(
        json.dumps(_pinned_view(_clos256_snapshot()), indent=1,
                   sort_keys=True) + "\n"
    )
    print(f"wrote {CLOS256_FIXTURE}")
