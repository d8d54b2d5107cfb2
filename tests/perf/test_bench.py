"""Smoke tests for the perf counters and the benchmark harness."""

import json

from repro.perf import KERNEL_COUNTERS
from repro.perf.bench_kernel import bench_event_loop, main
from repro.sim import Simulator


def test_kernel_counters_track_engine():
    KERNEL_COUNTERS.reset()
    sim = Simulator()
    sim.timeout(1.0)
    sim.timeout(2.0)
    sim.run()
    snap = KERNEL_COUNTERS.snapshot()
    assert snap["simulators"] >= 1
    assert snap["events"] >= 2


def test_bench_event_loop_reports_rate():
    report = bench_event_loop(2_000)
    assert report["events"] >= 2_000
    assert report["events_per_sec"] > 0
    assert report["wall_s"] > 0
    # Median rides alongside best-of-N; the CI gate compares medians.
    assert 0 < report["median_events_per_sec"] <= max(report["repeat_rates"])
    assert report["median_events_per_sec"] in report["repeat_rates"] or \
        len(report["repeat_rates"]) % 2 == 0


def test_smoke_benchmark_writes_valid_json(tmp_path, capsys):
    out = tmp_path / "BENCH_kernel.json"
    assert main(["--smoke", "-o", str(out)]) == 0
    capsys.readouterr()  # swallow the printed report
    report = json.loads(out.read_text())
    assert report["benchmark"] == "repro.perf.bench_kernel"
    assert report["cpu_count"] >= 1
    assert report["kernel"]["events_per_sec"] > 0
    assert report["kernel"]["median_events_per_sec"] > 0
    serving = report["serving"]
    assert serving["events"] > 0
    assert serving["median_events_per_sec"] > 0
    assert serving["msgs_delivered"] > 0
    assert serving["before"]["events_per_sec"] > 0
    # The smoke spec is shorter than the committed baseline workload, so
    # no cross-machine "speedup" may be reported for it.
    assert "speedup_vs_pre_kernel_v3" not in serving
    for entry in report["figures"].values():
        assert entry["serial_wall_s"] > 0
        assert entry["parallel_wall_s"] > 0
        assert entry["events_per_sec"] > 0
        assert entry["outputs_identical"] is True
        assert entry["cpu_count"] >= 1
        if entry["cpu_count"] == 1:
            # One core: the serial-vs-pool wall comparison is noise and
            # must be flagged rather than reported as a speedup.
            assert entry["speedup"] is None
            assert entry["parallel_comparison"] == "skipped-1cpu"
        else:
            assert entry["parallel_comparison"] == "measured"
    assert report["totals"]["all_outputs_identical"] is True


def test_timer_churn_reports_before_and_after():
    from repro.perf.bench_kernel import bench_timer_churn

    report = bench_timer_churn()
    # The protocol issues exactly as many (re)arm requests as the old
    # per-record scheme pushed heap callbacks — behaviour preserved...
    assert report["after"]["arm_requests"] == report["before"]["heap_callbacks"]
    # ...while the per-window timer collapses the heap traffic.
    assert report["after"]["heap_callbacks"] < report["before"]["heap_callbacks"]
    assert report["after"]["stale_fires"] < report["before"]["stale_fires"]
    assert report["after"]["fires"] >= 1  # the forced retransmission fired
    assert report["heap_callbacks_avoided"] > 0


def test_bench_serving_is_deterministic_and_carries_baseline():
    from repro.perf.bench_serving import PRE_KERNEL_V3_SERVING, bench_serving

    report = bench_serving(repeats=2, smoke=True)
    assert report["events"] > 0
    assert report["median_events_per_sec"] > 0
    assert report["msgs_posted"] > 0
    assert report["msgs_delivered"] > 0
    assert report["p99_delivery_us"] > 0
    assert report["before"] == PRE_KERNEL_V3_SERVING
    assert "speedup_vs_pre_kernel_v3" not in report
