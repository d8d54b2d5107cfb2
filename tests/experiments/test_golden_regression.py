"""Golden-value identity for the scenario-backed measurement stack.

The ``measure_*`` helpers were refactored into thin wrappers over
:class:`repro.scenario.Harness`; the figure modules now declare
:class:`~repro.scenario.ScenarioGrid` sweeps.  Both fixtures here were
captured from the PRE-refactor code, so these tests pin the refactor to
*byte-identical* results:

* ``golden_quick_tables.txt`` — the rendered quick tables of fig3-fig7,
  exactly as the serial CLI printed them before the scenario layer
  existed;
* ``golden_measure_values.json`` — full-precision (``repr``) spot values
  of every ``measure_*`` entry point, including per-destination
  delivery times.

A mismatch means the harness moved an event: program spawn order, round
barriers, or the memoized ack-trip changed the schedule.

Regenerate the fixtures (only after deliberately changing the model,
never to paper over a diff)::

    PYTHONPATH=src python tests/experiments/test_golden_regression.py
"""

import json
from pathlib import Path

from repro.experiments.cli import run_figure
from repro.experiments.fig6 import skew_sweep_point
from repro.experiments.runner import (
    measure_gm_multicast,
    measure_mpi_bcast,
    measure_multisend,
    measure_unicast,
)
from repro.gm.params import GMCostModel
from repro.scenario import harness

TABLES = Path(__file__).with_name("golden_quick_tables.txt")
VALUES = Path(__file__).with_name("golden_measure_values.json")
QUICK_FIGURES = ("fig3", "fig4", "fig5", "fig6", "fig7")


def quick_tables(figure=lambda fig: run_figure(fig, quick=True, jobs=1)) -> str:
    chunks = [figure(fig).render() for fig in QUICK_FIGURES]
    return "\n\n".join(chunks) + "\n"


def measure_values() -> dict:
    cost = GMCostModel()
    m = measure_gm_multicast(8, 4096, "nb", iterations=5, warmup=2)
    hb = measure_gm_multicast(8, 4096, "hb", iterations=5, warmup=2)
    sk = skew_sweep_point(8, True, 800.0, 4, 6, cost)
    return {
        "unicast_size0": repr(measure_unicast(cost, size=0)),
        "unicast_size64_it5": repr(measure_unicast(size=64, iterations=5)),
        "multisend_nb_4dest_64B": repr(
            measure_multisend(4, 64, "nb", iterations=5, warmup=2)
        ),
        "multisend_hb_4dest_64B": repr(
            measure_multisend(4, 64, "hb", iterations=5, warmup=2)
        ),
        "gm_nb_8n_4096B_latency": repr(m.latency),
        "gm_nb_8n_4096B_ack_trip": repr(m.ack_trip),
        "gm_nb_8n_4096B_per_dest": {
            str(k): repr(v) for k, v in m.per_dest_delivery.items()
        },
        "gm_hb_8n_4096B_latency": repr(hb.latency),
        "mpi_nb_6r_512B": repr(
            measure_mpi_bcast(6, 512, nic=True, iterations=4, warmup=2)
        ),
        "mpi_hb_6r_512B": repr(
            measure_mpi_bcast(6, 512, nic=False, iterations=4, warmup=2)
        ),
        "skew_nb_8n_max800_4B_cpu": repr(sk.mean_bcast_cpu_time),
        "skew_nb_8n_max800_4B_applied": repr(sk.mean_applied_skew),
    }


def test_quick_tables_byte_identical(quick_figure):
    assert quick_tables(quick_figure) == TABLES.read_text()


def test_measure_values_exact():
    golden = json.loads(VALUES.read_text())
    assert measure_values() == golden


def test_ack_trip_memoized_per_cost_model():
    """The ack-trip probe runs once per cost model and never drifts."""
    cost = GMCostModel()
    harness._ACK_TRIP_CACHE.pop(cost, None)
    first = harness.measured_ack_trip(cost)
    assert cost in harness._ACK_TRIP_CACHE
    # Second call is a pure cache hit...
    assert harness.measured_ack_trip(cost) is first
    # ...and the cached value is exactly the uncached measurement.
    assert first == measure_unicast(cost, size=0)
    # Distinct cost models get distinct cache slots.
    other = GMCostModel(link_latency=cost.link_latency * 2)
    harness._ACK_TRIP_CACHE.pop(other, None)
    assert harness.measured_ack_trip(other) != first
    assert set(harness._ACK_TRIP_CACHE) >= {cost, other}


if __name__ == "__main__":  # regenerate fixtures
    TABLES.write_text(quick_tables())
    with VALUES.open("w", encoding="utf-8") as fh:
        json.dump(measure_values(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {TABLES} and {VALUES}")
