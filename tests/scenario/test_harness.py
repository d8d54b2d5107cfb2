"""Harness execution, grid mechanics, and wrapper equivalence."""

import pytest

from repro.experiments.parallel import run_grid
from repro.experiments.runner import measure_multisend, measure_unicast
from repro.gm.params import GMCostModel
from repro.scenario import (
    Harness,
    MulticastMeasurement,
    ScenarioGrid,
    ScenarioSpec,
    multicast_point,
    multisend_point,
    run_cell,
    run_spec,
    unicast_point,
)
from repro.scenario.spec import MeasurementSpec, WorkloadSpec


def test_wrappers_equal_direct_harness_runs():
    """measure_* and Harness(point).run() are the same computation."""
    spec = multisend_point(4, 64, "nb", iterations=5, warmup=2)
    direct = Harness(spec).run().values[64]
    assert direct == measure_multisend(4, 64, "nb", iterations=5, warmup=2)
    assert direct == run_spec(spec).values[64]

    spec = unicast_point(size=64, iterations=5)
    assert Harness(spec).run().values[64] == measure_unicast(
        size=64, iterations=5
    )


def test_run_cell_round_trips_the_json_payload():
    spec = multicast_point(4, 512, "nb", iterations=3, warmup=1)
    values = run_cell(spec.to_json())
    assert values == Harness(spec).run().values
    assert isinstance(values[512], MulticastMeasurement)


def test_multi_size_measurement_one_cluster_per_size():
    spec = ScenarioSpec(
        workload=WorkloadSpec(kind="multisend", scheme="nb"),
        cluster=multisend_point(3, 0, "nb").cluster,
        measurement=MeasurementSpec(sizes=(16, 64), iterations=3, warmup=1),
    )
    result = Harness(spec).run()
    assert list(result.values) == [16, 64]
    for size in (16, 64):
        assert result.values[size] == measure_multisend(
            3, size, "nb", iterations=3, warmup=1
        )


def test_scalar_covers_every_value_shape():
    m = Harness(multicast_point(4, 64, "nb", iterations=3, warmup=1)).run()
    assert m.scalar(64) == m.values[64].latency
    u = Harness(unicast_point(size=0, iterations=3)).run()
    assert u.scalar(0) == u.values[0]


def test_registry_attaches_via_duck_typed_slot():
    sentinel = object()
    harness = Harness(unicast_point(size=0), registry=sentinel)
    assert harness.build_cluster().sim.metrics is sentinel
    # Without a registry the slot keeps the simulator's default.
    assert Harness(unicast_point(size=0)).build_cluster() is not None


def test_built_cluster_stays_the_callers_to_close():
    cluster = Harness(unicast_point(size=0)).build_cluster()
    port = cluster.port(0)

    def send():
        handle = yield from port.send(1, 0)
        yield handle.done

    cluster.run(until=cluster.spawn(send()))
    cluster.run()  # still open: the harness closes only its own points
    cluster.close()


def test_config_loss_changes_the_measurement():
    """A declarative loss spec reaches the wire (drops force retransmits)."""
    clean = multicast_point(4, 4096, "nb", iterations=4, warmup=1)
    lossy_cluster = ScenarioSpec.from_dict(
        {
            "workload": {"kind": "multicast", "scheme": "nb"},
            "cluster": {
                "n_nodes": 4,
                "loss": {"kind": "bernoulli", "rate": 0.4},
            },
            "measurement": {"sizes": [4096], "iterations": 4, "warmup": 1},
        }
    )
    clean_latency = Harness(clean).run().values[4096].latency
    lossy_latency = Harness(lossy_cluster).run().values[4096].latency
    assert lossy_latency > clean_latency


def test_grid_rejects_duplicate_keys_and_keeps_order():
    grid = ScenarioGrid("figX")
    grid.add(("NB", 1), unicast_point(size=1)).add(("NB", 2), unicast_point(size=2))
    assert grid.keys() == [("NB", 1), ("NB", 2)]
    assert len(grid) == 2
    with pytest.raises(ValueError, match="duplicate"):
        grid.add(("NB", 1), unicast_point(size=1))


def test_grid_auto_labels_from_coordinates():
    grid = ScenarioGrid("fig9")
    grid.add(("NB", 64), unicast_point(size=64))
    grid.add("solo", unicast_point(size=0), label="custom")
    assert grid.cells[0].label == "fig9[NB,64]"
    assert grid.cells[1].label == "custom"


def test_grid_cells_serialize_and_reconstruct():
    grid = ScenarioGrid("figX")
    spec = multisend_point(3, 64, "nb", iterations=3, warmup=1)
    grid.add(("NB", 64), spec)
    (payload,) = grid.to_json_cells()
    assert payload["label"] == "figX[NB,64]"
    assert ScenarioSpec.from_dict(payload["spec"]) == spec


def test_run_grid_serial_matches_direct_runs():
    cost = GMCostModel()
    grid = ScenarioGrid("figX")
    for size in (16, 256):
        grid.add(size, multisend_point(3, size, "nb", iterations=3, warmup=1,
                                       cost=cost))
    values = run_grid(grid, jobs=1)
    assert list(values) == [16, 256]
    for size in (16, 256):
        assert values[size] == measure_multisend(
            3, size, "nb", iterations=3, warmup=1, cost=cost
        )
