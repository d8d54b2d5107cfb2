"""Smoke tests for the figure modules (quick mode) and the CLI."""

import pytest

from repro.experiments import FIGURES
from repro.experiments.cli import main, run_figure


def test_figures_registry_complete():
    assert set(FIGURES) == {f"fig{i}" for i in range(1, 10)}


def test_fig1_runs():
    result = run_figure("fig1", quick=True)
    assert result.headlines["probes passing (of 4)"] == 4.0
    assert "table" in result.extra


def test_fig2_runs():
    result = run_figure("fig2", quick=True)
    assert (
        result.headlines["NB mean inter-replica gap (header rewrite)"]
        < result.headlines["HB mean inter-replica gap (request processing)"]
    )


def test_fig3_quick_shape(quick_figure):
    result = quick_figure("fig3")
    factor = result.get("factor-4dest")
    assert factor.y_at(1) > 1.5
    assert 0.8 < factor.y_at(16384) < 1.2


def test_fig5_quick_shape(quick_figure):
    result = quick_figure("fig5")
    assert result.get("factor-16").y_at(1) > result.get("factor-4").y_at(1)


def test_cli_requires_target(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_cli_runs_figure_and_writes_output(tmp_path, capsys):
    out = tmp_path / "results.md"
    rc = main(["--figure", "fig1", "-o", str(out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "fig1" in captured
    assert out.exists()
    assert "Feature-axes" in out.read_text()
