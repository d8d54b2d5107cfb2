"""Fixtures shared by the test packages."""

import pytest

from repro.experiments.cli import run_figure


@pytest.fixture(scope="session")
def quick_figure():
    """``quick_figure(figure_id)``: the figure's quick serial result.

    Each figure runs once per session; the golden tables, the figure
    smoke tests and the paper-shape claims read the same result, so it
    must not be modified.
    """
    results = {}

    def get(figure_id):
        if figure_id not in results:
            results[figure_id] = run_figure(figure_id, quick=True, jobs=1)
        return results[figure_id]

    return get
