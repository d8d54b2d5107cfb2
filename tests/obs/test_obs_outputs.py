"""The files ``python -m repro.obs`` writes, pinned byte for byte.

Four JSON outputs carry what the flight recorder, the registry and the
time-series sampler saw: the smoke run's Chrome trace (its counter
tracks are the recorder's gauge samples) and health report, a serving
spec's windowed time series, and a self-healing spec's critical-path
decomposition.  Each command runs in a fresh interpreter inside a
temporary directory, so process-global allocators start from zero, and
the sha256 of every file it writes must equal ``golden_obs_outputs.json``.
The files are identical on Python 3.10, 3.11 and 3.12.

Regenerate the fixture only after deliberately changing what an output
holds::

    PYTHONPATH=src python tests/obs/test_obs_outputs.py
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
FIXTURE = Path(__file__).with_name("golden_obs_outputs.json")
SCENARIOS = ROOT / "examples" / "scenarios"

#: Command -> its ``python -m repro.obs`` arguments and the files it writes.
COMMANDS = {
    "smoke": (
        ["--smoke"], ("obs_smoke_trace.json", "obs_smoke_report.json"),
    ),
    "timeseries": (
        ["timeseries", str(SCENARIOS / "serving_churn.json"),
         "--json", "timeseries.json"],
        ("timeseries.json",),
    ),
    "critical-path": (
        ["critical-path", str(SCENARIOS / "clos_failures_selfheal.json"),
         "--json", "critical_path.json"],
        ("critical_path.json",),
    ),
}


def written_digests(command: str, workdir: Path) -> dict[str, str]:
    """Run *command* in *workdir*; the sha256 of each file it writes."""
    args, files = COMMANDS[command]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, "-m", "repro.obs", *args], cwd=workdir, env=env,
        check=True, capture_output=True, timeout=300,
    )
    return {
        name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
        for name in files
    }


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_written_outputs_identical_to_fixture(command, tmp_path):
    expected = json.loads(FIXTURE.read_text())[command]
    assert written_digests(command, tmp_path) == expected


if __name__ == "__main__":  # fixture regeneration entry point
    digests = {}
    for command in sorted(COMMANDS):
        with tempfile.TemporaryDirectory() as tmp:
            digests[command] = written_digests(command, Path(tmp))
    FIXTURE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({len(digests)} commands)")
