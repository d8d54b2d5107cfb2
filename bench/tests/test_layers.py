"""Per-layer attribution of profiled self time."""

import os

import pytest

from bench.layers import LAYERS, attribute, kernel_metrics, layer_of

ROOT = os.path.join(os.sep, "x", "src", "repro")


def _fn(path, name):
    return (path, 1, name)


SIM = _fn(os.path.join(ROOT, "sim", "engine.py"), "run")
NET = _fn(os.path.join(ROOT, "net", "fabric.py"), "route")
CFG = _fn(os.path.join(ROOT, "config.py"), "__init__")
ERR = _fn(os.path.join(ROOT, "errors.py"), "__init__")
NX = _fn(os.path.join(os.sep, "lib", "networkx", "sp.py"), "predecessor")
BUILTIN = ("~", 0, "<built-in method builtins.len>")
HARNESS = _fn(os.path.join(os.sep, "x", "bench", "passes.py"), "run_pass")


@pytest.mark.parametrize("func,layer", [
    (SIM, "sim"), (NET, "net"), (CFG, "cluster"), (ERR, None), (NX, None),
    (BUILTIN, None), (HARNESS, None),
])
def test_layer_of(func, layer):
    assert layer_of(func[0], ROOT) == layer


def test_foreign_time_goes_to_callers_in_proportion():
    stats = {
        # func: (cc, nc, tottime, cumtime, callers)
        SIM: (1, 1, 1.0, 5.0, {}),
        NET: (2, 2, 1.0, 3.0, {SIM: (2, 2, 1.0, 3.0)}),
        # networkx: 1.5 s under net, 0.5 s called straight from sim
        NX: (4, 4, 2.0, 2.0, {NET: (3, 3, 1.5, 1.5), SIM: (1, 1, 0.5, 0.5)}),
        # a builtin called only by networkx, recursively too
        BUILTIN: (8, 8, 0.4, 0.4, {NX: (8, 8, 0.4, 0.4),
                                   BUILTIN: (1, 1, 0.0, 0.0)}),
        HARNESS: (1, 1, 0.1, 5.1, {}),
    }
    self_time, calls, total = attribute(stats, ROOT)
    assert total == pytest.approx(4.5)
    assert self_time["net"] == pytest.approx(1.0 + 1.5 + 0.3)
    assert self_time["sim"] == pytest.approx(1.0 + 0.5 + 0.1)
    # only the harness's own time reaches no layer
    assert total - sum(self_time.values()) == pytest.approx(0.1)
    assert calls["net"] == 2 and calls["sim"] == 1
    assert set(self_time) == set(LAYERS)


def test_mutual_recursion_between_foreign_functions_converges():
    a = _fn("/lib/a.py", "a")
    b = _fn("/lib/b.py", "b")
    stats = {
        NET: (1, 1, 0.0, 2.0, {}),
        a: (2, 2, 1.0, 2.0, {NET: (1, 1, 0.5, 1.0), b: (1, 1, 0.5, 1.0)}),
        b: (1, 1, 1.0, 1.5, {a: (1, 1, 1.0, 1.5)}),
    }
    self_time, _, total = attribute(stats, ROOT)
    assert self_time["net"] == pytest.approx(total)


def test_kernel_metrics_are_ratios_of_counters():
    kernel = {
        "events": 1000, "batched_events": 250, "wheel_armed": 40,
        "wheel_cancelled": 10, "simulators": 2, "timers_armed": 80,
        "timer_fires": 20, "timer_stale_fires": 5,
    }
    out = kernel_metrics(kernel, ops=10)
    assert out["sim.events_per_op"] == 100
    assert out["sim.batched_frac"] == 0.25
    assert out["sim.wheel_cancel_frac"] == 0.25
    assert out["proto.timer_stale_frac"] == 0.25
    assert out["sim.simulators"] == 2
