"""``bench compare`` verdicts on synthetic reports."""

import copy
import json
import subprocess
import sys

import pytest

from bench.catalog import END_TO_END
from bench.compare import compare, verdict
from bench.run import ROOT


def _metric(samples):
    ordered = sorted(samples)
    n = len(ordered)
    return {
        "value": ordered[n // 2], "q1": ordered[n // 4],
        "q3": ordered[(3 * n) // 4], "n": n, "samples": samples,
    }


def _report(scale=1.0, seed=1, failed=0, p99=1000.0, layers=None):
    metrics = {
        m.name: _metric([v * scale for v in (1.00, 1.01, 0.99, 1.02, 0.98)])
        for m in END_TO_END
    }
    metrics["delivery_p50_us"] = _metric([300.0] * 5)
    metrics["delivery_p99_us"] = _metric([p99] * 5)
    entry = {
        "seed": seed, "inputs": 4, "attempted": 1000, "failed": failed,
        "ops": 200, "ops_failed": failed // 5, "metrics": metrics,
    }
    if layers is not None:
        entry["layers"] = {k: {"value": v} for k, v in layers.items()}
    return {"workloads": {"w": entry}}


def _verdicts(rows):
    return {r["metric"]: r["verdict"] for r in rows}


@pytest.mark.parametrize("base,new,better,bound,expected", [
    ([1.0, 1.01, 0.99], [1.3, 1.31, 1.29], "lower", 0.1, "worse"),
    ([1.0, 1.01, 0.99], [1.05, 1.06, 1.04], "lower", 0.1, "within-bound"),
    ([1.0, 1.01, 0.99], [0.8, 0.81, 0.79], "lower", 0.1, "better"),
    ([1.0, 1.5, 0.6], [1.1, 1.6, 0.7], "lower", 0.1, "unresolved"),
    # a spread wider than the bound, but every new sample wins
    ([2.0, 3.0, 2.5], [1.0, 1.5, 1.2], "lower", 0.1, "better"),
    ([1.0, 1.01, 0.99], [0.8, 0.81, 0.79], "higher", 0.1, "worse"),
    ([1.0, 1.5, 0.6], [2.0, 2.5, 1.9], "higher", 0.1, "better"),
])
def test_verdict(base, new, better, bound, expected):
    assert verdict(_metric(base), _metric(new), better, bound) == expected


def test_identical_reports_compare_clean():
    rows, failing = compare(_report(), _report())
    verdicts = _verdicts(rows)
    assert not failing
    assert verdicts["wall_s"] == "within-bound"
    assert verdicts["delivery_p99_us"] == "identical"
    assert verdicts["ops"] == verdicts["ops_failed"] == "identical"


def test_slower_run_fails():
    rows, failing = compare(_report(), _report(scale=1.5))
    assert failing
    assert _verdicts(rows)["wall_s"] == "worse"


def test_deterministic_metric_compared_exactly_on_one_seed():
    rows, failing = compare(_report(), _report(p99=1000.5))
    assert _verdicts(rows)["delivery_p99_us"] == "worse"
    assert failing
    rows, _ = compare(_report(), _report(p99=999.0))
    assert _verdicts(rows)["delivery_p99_us"] == "better"


def test_deterministic_metric_uses_bound_across_seeds():
    rows, failing = compare(_report(seed=1), _report(seed=2, p99=1001.0))
    assert _verdicts(rows)["delivery_p99_us"] == "within-bound"
    assert not failing
    assert "ops" not in _verdicts(rows)


def test_higher_failed_share_fails():
    rows, failing = compare(_report(), _report(failed=5))
    assert failing
    assert _verdicts(rows)["failed_share"] == "worse"
    assert _verdicts(rows)["ops_failed"] == "worse"


def test_workload_missing_from_new_report_fails():
    base = _report()
    base["workloads"]["v"] = copy.deepcopy(base["workloads"]["w"])
    rows, failing = compare(base, _report())
    assert failing
    missing = [r for r in rows if r["workload"] == "v"]
    assert [r["verdict"] for r in missing] == ["missing"]
    assert all(r["verdict"] != "worse" for r in rows)


def test_layer_counts_compared_exactly_timings_skipped():
    base = _report(layers={"sim.events_per_op": 100.0, "sim.self_frac": 0.4})
    new = _report(layers={"sim.events_per_op": 90.0, "sim.self_frac": 0.3})
    rows, failing = compare(base, new)
    verdicts = _verdicts(rows)
    assert verdicts["sim.events_per_op"] == "changed"
    assert "sim.self_frac" not in verdicts
    assert not failing


def test_cli_exit_status(tmp_path):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(_report()))
    same = tmp_path / "same.json"
    same.write_text(json.dumps(copy.deepcopy(_report())))
    slow = tmp_path / "slow.json"
    slow.write_text(json.dumps(_report(scale=1.5)))

    def run(a, b):
        return subprocess.run(
            [sys.executable, "-m", "bench", "compare", str(a), str(b)],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )

    ok = run(base, same)
    assert ok.returncode == 0, ok.stdout + ok.stderr
    assert "within-bound" in ok.stdout
    bad = run(base, slow)
    assert bad.returncode == 1
    assert "worse" in bad.stdout
