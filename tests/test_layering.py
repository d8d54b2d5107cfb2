"""The import-layering rules from docs/architecture.md hold."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "check_layering.py"


def test_layering_clean():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def _load_checker():
    import importlib.util

    spec = importlib.util.spec_from_file_location("check_layering", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_checker_sees_through_guards():
    # The checker must ignore TYPE_CHECKING-only imports but catch
    # runtime ones, wherever they hide.
    import ast

    mod = _load_checker()
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.gm import x\n"
        "def f():\n"
        "    import repro.mcast\n"
    )
    modules = [m for _, m in mod.runtime_imports(tree)]
    assert "repro.mcast" in modules
    assert "repro.gm" not in modules


def test_obs_back_edge_rule(tmp_path):
    """Instrumented layers must not import repro.obs; experiments (which
    aggregates and reports) may."""
    mod = _load_checker()
    src = tmp_path / "src" / "repro"
    (src / "nic").mkdir(parents=True)
    (src / "experiments").mkdir()
    (src / "nic" / "bad.py").write_text(
        "import repro.obs\n"
    )
    (src / "experiments" / "ok.py").write_text(
        "from repro.obs.registry import MetricsRegistry\n"
    )
    mod.SRC = src
    mod.REPO = tmp_path

    violations = mod.check_obs_back_edges()
    assert len(violations) == 1
    assert "nic/bad.py" in violations[0].replace("\\", "/")
    assert "repro.obs" in violations[0]


def test_scenario_back_edge_rule(tmp_path):
    """Protocol engines must not import repro.scenario; the experiment
    harness (which feeds specs to pool workers) may."""
    mod = _load_checker()
    src = tmp_path / "src" / "repro"
    (src / "mcast").mkdir(parents=True)
    (src / "experiments").mkdir()
    (src / "mcast" / "bad.py").write_text(
        "from repro.scenario import ScenarioSpec\n"
    )
    (src / "experiments" / "ok.py").write_text(
        "from repro.scenario.harness import run_cell\n"
    )
    mod.SRC = src
    mod.REPO = tmp_path

    violations = mod.check_scenario_back_edges()
    assert len(violations) == 1
    assert "mcast/bad.py" in violations[0].replace("\\", "/")
    assert "repro.scenario" in violations[0]


def test_scenario_must_not_import_experiments_or_obs(tmp_path):
    """The scenario allowlist excludes the layers above it."""
    mod = _load_checker()
    src = tmp_path / "src" / "repro"
    (src / "scenario").mkdir(parents=True)
    (src / "scenario" / "bad.py").write_text(
        "from repro.experiments.report import render_table\n"
        "import repro.obs\n"
        "from repro.cluster import Cluster\n"
    )
    mod.SRC = src
    mod.REPO = tmp_path

    violations = mod.check_package(
        "scenario", mod.ALLOWED["scenario"]
    )
    assert len(violations) == 2
    assert any("repro.experiments" in v for v in violations)
    assert any("repro.obs" in v for v in violations)


def test_obs_type_checking_import_allowed(tmp_path):
    # Annotations may name obs types without a runtime back-edge.
    mod = _load_checker()
    src = tmp_path / "src" / "repro"
    (src / "gm").mkdir(parents=True)
    (src / "gm" / "annotated.py").write_text(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.obs import MetricsRegistry\n"
    )
    mod.SRC = src
    mod.REPO = tmp_path
    assert mod.check_obs_back_edges() == []
