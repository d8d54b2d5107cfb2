"""Regeneration of every figure in the paper's evaluation (§6).

Each ``figN`` module exposes ``run(quick=False) -> FigureResult``;
``repro.experiments.cli`` drives them all and renders EXPERIMENTS.md.
"""

from repro.experiments.report import FigureResult, Series, render_table

__all__ = ["FigureResult", "Series", "render_table"]

#: figure id -> module path, for the CLI and the tests
FIGURES = {
    "fig1": "repro.experiments.fig1",
    "fig2": "repro.experiments.fig2",
    "fig3": "repro.experiments.fig3",
    "fig4": "repro.experiments.fig4",
    "fig5": "repro.experiments.fig5",
    "fig6": "repro.experiments.fig6",
    "fig7": "repro.experiments.fig7",
    "fig8": "repro.experiments.fig8",
    "fig9": "repro.experiments.fig9",
}
