"""The known-failing workloads report their failures instead of hiding
them, and stay out of BENCHMARK.json and the default run."""

import json
import subprocess
import sys

from bench.run import ROOT
from bench.workloads import KNOWN_FAILING, WORKLOADS


def test_known_failing_workloads_are_not_benchmark_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {w["name"] for w in spec["workloads"]}
    assert KNOWN_FAILING
    assert not listed & set(KNOWN_FAILING)
    assert not set(WORKLOADS) & set(KNOWN_FAILING)


def test_serving16_all_schemes_records_its_failure(tmp_path):
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "serving16_all_schemes",
         "--seed", "11", "--seconds", "1", "-o", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is False
    assert summary["failed"] > 0
    entry = json.loads(out.read_text())["workloads"]["serving16_all_schemes"]
    assert entry["ops_failed"] > 0
    # The failure is the program's, and it repeats: the repeated input
    # reproduced its output, and every check names a mis-delivering group.
    assert entry["checks"]
    assert all(c.startswith("group ") for c in entry["checks"]), entry["checks"]
