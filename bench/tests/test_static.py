"""What the benchmark may import, and BENCHMARK.json agreeing with it."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

from bench.catalog import END_TO_END, PER_LAYER
from bench.run import ROOT
from bench.workloads import WORKLOADS

BENCH = ROOT / "bench"


def _imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{a.name}" for a in node.names)


def test_bench_imports_no_perf_bench_module():
    offenders = [
        (str(path.relative_to(ROOT)), name)
        for path in BENCH.rglob("*.py")
        for name in _imports(path)
        if re.match(r"repro\.perf\.bench_", name)
    ]
    assert offenders == []


def test_benchmark_json_matches_the_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert spec["command"] == ["python3", "-m", "bench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER
    ]
    setup = [m for m in END_TO_END if m.name == "setup_s"]
    assert setup and setup[0].bound == max(m.bound for m in END_TO_END)
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)


def test_exits_nonzero_without_the_simulator(tmp_path):
    """In a copy holding only BENCHMARK.json and the benchmark, it fails
    fast and prints no result."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "serving16",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
