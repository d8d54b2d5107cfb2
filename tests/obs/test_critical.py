"""Critical-path acceptance: reconciliation and recovery gaps.

The fig8-style pinned scenario here is the committed
``examples/scenarios/clos_failures_selfheal.json`` workload: a 64-node
Clos broadcast under ``tree_repair`` with three uplinks scheduled down
mid-flight, so some destinations deliver only after the healed tree
replays the message.  The acceptance bars:

* every destination's six segment sums reconcile with the harness's
  measured delivery time to < 1us;
* ``recovery_gap`` is non-zero exactly for the failure-affected
  (replayed) destinations.
"""

import json
from pathlib import Path

import pytest

from repro.obs.critical import (
    SEGMENTS,
    critical_path_to_dict,
    critical_paths,
    render_critical_path,
)
from repro.obs.flight import FlightRecorder
from repro.obs.registry import MetricsRegistry
from repro.scenario.harness import Harness
from repro.scenario.spec import ScenarioSpec

SPEC_PATH = (
    Path(__file__).resolve().parents[2]
    / "examples" / "scenarios" / "clos_failures_selfheal.json"
)


@pytest.fixture(scope="module")
def clos():
    """One flight-recorded run of the pinned failure scenario."""
    spec = ScenarioSpec.from_json(SPEC_PATH.read_text())
    flight = FlightRecorder(sample=1.0)
    result = Harness(
        spec, registry=MetricsRegistry(), flight=flight
    ).run()
    size = spec.measurement.sizes[0]
    return result.values[size], critical_paths(flight.events)


def test_segment_sums_reconcile_within_1us(clos):
    broadcast, paths = clos
    assert len(paths) == 1
    cp = paths[0]
    assert len(cp.destinations) == len(broadcast.deliveries) == 63
    for dest, p in cp.destinations.items():
        assert p.exact, f"dest {dest} walk hit a gap"
        # Telescoping walk: segments sum exactly to the flight's view.
        assert p.segment_sum == pytest.approx(p.delivery_us, abs=1e-9)
        # ...and the flight's view matches the harness measurement to
        # < 1us (the host wake-up after the completion event).
        measured = broadcast.deliveries[dest] - broadcast.start_us
        assert abs(measured - p.segment_sum) < 1.0, (
            f"dest {dest}: measured {measured:.3f}us vs "
            f"segments {p.segment_sum:.3f}us"
        )


def test_recovery_gap_only_for_replayed_destinations(clos):
    _broadcast, paths = clos
    cp = paths[0]
    replayed = {d for d, p in cp.destinations.items() if p.replayed}
    assert replayed, "the pinned scenario must exercise replay"
    for dest, p in cp.destinations.items():
        if dest in replayed:
            assert p.segments["recovery_gap"] > 0.0
        else:
            assert p.segments["recovery_gap"] == 0.0
    # The broadcast's critical destination is failure-affected: the
    # fig8 answer to "where did the time go" is the recovery gap.
    crit = cp.destinations[cp.critical_destination]
    assert crit.replayed
    assert crit.segments["recovery_gap"] > max(
        crit.segments[s] for s in SEGMENTS if s != "recovery_gap"
    )


def test_render_and_dict_shapes(clos):
    _broadcast, paths = clos
    cp = paths[0]
    text = render_critical_path(cp)
    assert "critical path: trace" in text
    assert "recovery gap" in text
    d = critical_path_to_dict(cp)
    assert d["critical_destination"] == cp.critical_destination
    assert set(d["destinations"]) == {
        str(dest) for dest in cp.destinations
    }
    one = next(iter(d["destinations"].values()))
    assert set(one["segments"]) == set(SEGMENTS)
    json.dumps(d)  # JSON-ready end to end
