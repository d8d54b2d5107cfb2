"""End to end: ``python -m bench --smoke``, untraced twice and traced once."""

import json
import re
import subprocess
import sys
import time

import pytest

from bench.catalog import END_TO_END, PER_LAYER
from bench.run import ROOT
from bench.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _smoke(out, *extra):
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--smoke", "-o", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    return json.loads(out.read_text()), summary, elapsed


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("smoke")
    return _smoke(tmp / "a.json"), _smoke(tmp / "b.json")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _smoke(tmp_path_factory.mktemp("traced") / "t.json", "--trace")


def test_smoke_finishes_in_time_and_is_correct(smoke_runs):
    (report, summary, elapsed), _ = smoke_runs
    assert elapsed < 30
    assert set(report["workloads"]) == set(WORKLOADS)
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] > 0
    for entry in report["workloads"].values():
        assert entry["correct"], entry["checks"]


def test_every_end_to_end_metric_reported_with_its_unit(smoke_runs):
    (report, summary, _), _ = smoke_runs
    for name, entry in report["workloads"].items():
        for m in END_TO_END:
            assert NAME.fullmatch(m.name)
            got = entry["metrics"][m.name]
            assert got["unit"] == m.unit
            assert got["value"] > 0, (name, m.name)
            assert summary["metrics"][f"{name}:{m.name}"]["unit"] == m.unit


def test_deterministic_outputs_repeat(smoke_runs):
    (a, _, _), (b, _, _) = smoke_runs
    for name in WORKLOADS:
        ea, eb = a["workloads"][name], b["workloads"][name]
        for key in ("ops", "ops_failed", "deliveries"):
            assert ea[key] == eb[key], (name, key)
        for metric in ("delivery_p50_us", "delivery_p99_us"):
            assert ea["metrics"][metric]["value"] == \
                eb["metrics"][metric]["value"]


def test_traced_run_reports_every_layer_metric(traced):
    report, summary, _ = traced
    for name, entry in report["workloads"].items():
        for m in PER_LAYER:
            assert NAME.fullmatch(m.name)
            assert entry["layers"][m.name]["unit"] == m.unit, (name, m.name)
            assert summary["metrics"][f"{name}:{m.name}"]["unit"] == m.unit
        assert entry["layers"]["trace.unattributed_frac"]["value"] <= 0.02
        assert entry["layers"]["trace.overhead_x"]["value"] > 1.0


def test_traced_run_shows_the_designed_pairings(traced):
    layers = {
        name: {k: v["value"] for k, v in entry["layers"].items()}
        for name, entry in traced[0]["workloads"].items()
    }
    assert layers["clos256"]["net.self_frac"] > layers["serving16"]["net.self_frac"]
    for metric in ("proto.nack_sent", "proto.fec_parity_sent"):
        assert layers["repair64"][metric] > 0
        assert layers["serving16"][metric] == layers["clos256"][metric] == 0
    assert [n for n in layers if layers[n]["mpi.calls_per_op"]] == ["oneshot"]
    for name, values in layers.items():
        if name != "serving16_observed":
            assert values["obs.self_frac"] < 0.01, name
    assert layers["serving16_observed"]["obs.self_frac"] > 0.01
