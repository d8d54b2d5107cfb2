"""Run workloads as child processes and aggregate what they report.

A run of one workload makes ``seconds / pass_s`` passes (at least
:data:`MIN_PASSES`).  Every pass but the last runs a distinct input set
drawn from the seed; the last repeats the first, and must reproduce its
output exactly.  Host times and memory are medians over all passes; the
delivery quantiles pool the deliveries of the distinct inputs, so the
tail rests on several thousand samples and on more than one arrival
pattern.

One child runs at a time, so the benchmark never has more than two
processes alive.  Passes of the selected workloads run round-robin, so
a slow spell on a shared host lands on every workload instead of one.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from bench.catalog import DETERMINISTIC, END_TO_END, by_name
from bench.layers import kernel_metrics
from bench.workloads import ALL_WORKLOADS, Workload

__all__ = [
    "ROOT", "BenchError", "plan", "quantile", "run", "summary_line", "render",
]

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3
#: A pass that takes longer than this has hung.
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong answer from the program)."""


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (the rule ``ServingStats.quantile`` uses)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def plan(workload: Workload, seconds: float, smoke: bool) -> list[int]:
    """The input set each pass runs: distinct ones, then input 0 again."""
    if smoke:
        return [0]
    passes = max(MIN_PASSES, int(seconds / workload.pass_s))
    return list(range(passes - 1)) + [0]


def _spawn(
    workload: str, seed: int, index: int, smoke: bool, env: dict[str, str],
    profile: Path | None = None, registry: bool = False,
) -> dict[str, Any]:
    cmd = [
        sys.executable, "-m", "bench.child",
        "--workload", workload, "--seed", str(seed), "--input", str(index),
    ]
    if smoke:
        cmd.append("--smoke")
    if profile is not None:
        cmd += ["--profile", str(profile)]
    if registry:
        cmd.append("--registry")
    cmd += ["--spawned-at", repr(time.perf_counter())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(
            f"{workload}: pass exceeded {CHILD_TIMEOUT_S:.0f}s"
        ) from None
    if proc.returncode != 0:
        raise BenchError(
            f"{workload}: pass exited with {proc.returncode}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spread(values: list[float]) -> dict[str, Any]:
    if len(values) > 1:
        # Inclusive quartiles: with a handful of passes the exclusive
        # method puts q1 and q3 next to the extremes.
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"value": med, "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def _by_input(passes: list[dict[str, Any]]) -> dict[int, dict[str, Any]]:
    """The first pass of every distinct input set."""
    firsts: dict[int, dict[str, Any]] = {}
    for p in passes:
        firsts.setdefault(p["input"], p)
    return firsts


def _aggregate(passes: list[dict[str, Any]]) -> dict[str, Any]:
    """One workload's passes -> medians, spreads, op counts, checks."""
    checks: list[str] = []
    firsts = _by_input(passes)
    for p in passes:
        if p is firsts[p["input"]]:
            checks += p["failures"]
        elif p["fingerprint"] != firsts[p["input"]]["fingerprint"]:
            checks.append(
                f"input {p['input']} gave a different output when repeated"
            )
    distinct = list(firsts.values())
    pooled = [x for p in distinct for x in p["latencies_us"]]
    if not all(p["latencies_us"] for p in distinct):
        checks.append("an input produced no deliveries to measure")
    catalog = by_name()
    metrics = {}
    for m in END_TO_END:
        if m.name in DETERMINISTIC:
            q = 0.50 if m.name == "delivery_p50_us" else 0.99
            entry = _spread([
                quantile(p["latencies_us"], q)
                for p in distinct if p["latencies_us"]
            ] or [0.0])
            entry["value"] = quantile(pooled, q) if pooled else 0.0
        else:
            entry = _spread([p[m.name] for p in passes])
        entry["unit"] = catalog[m.name].unit
        metrics[m.name] = entry
    return {
        "passes": len(passes),
        "inputs": len(distinct),
        "attempted": sum(p["ops"] for p in passes),
        "failed": sum(p["ops_failed"] for p in passes),
        "ops": sum(p["ops"] for p in distinct),
        "ops_failed": sum(p["ops_failed"] for p in distinct),
        "deliveries": len(pooled),
        "checks": checks,
        "metrics": metrics,
    }


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def run(
    names: list[str],
    out_dir: Path,
    seed: int | None = None,
    seconds: float = 15.0,
    trace: bool = False,
    smoke: bool = False,
) -> dict[str, Any]:
    """Measure *names* and return the report (see ``bench/README.md``).

    A traced run leaves one ``<workload>.pstats`` in *out_dir*.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no simulator sources under {src}")
    unknown = [n for n in names if n not in ALL_WORKLOADS]
    if unknown:
        raise BenchError(f"unknown workload(s): {', '.join(unknown)}")
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT)])
    )
    seeds = {
        n: w.seed if seed is None else seed for n, w in ALL_WORKLOADS.items()
    }
    plans = {n: plan(ALL_WORKLOADS[n], seconds, smoke) for n in names}
    for n in names:
        ref = ALL_WORKLOADS[n].reference
        if ref is not None and ref not in plans:
            plans[ref] = plans[n]

    started = time.perf_counter()
    passes: dict[str, list[dict[str, Any]]] = {n: [] for n in plans}
    for i in range(max(len(p) for p in plans.values())):
        for n, inputs in plans.items():
            if i < len(inputs):
                p = _spawn(n, seeds[n], inputs[i], smoke, env)
                passes[n].append(p)
                _log(f"  {n}: input {inputs[i]} wall {p['wall_s']:.3f}s "
                     f"setup {p['setup_s']:.3f}s")

    report: dict[str, Any] = {
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "trace": trace,
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workloads": {},
    }
    for n in names:
        entry = _aggregate(passes[n])
        entry["seed"] = seeds[n]
        ref = ALL_WORKLOADS[n].reference
        if ref is not None:
            ref_firsts = _by_input(passes[ref])
            for p in passes[n]:
                if p["observable"] != ref_firsts[p["input"]]["observable"]:
                    entry["checks"].append(
                        f"input {p['input']}: outputs differ from {ref} "
                        "(observing perturbed the run)"
                    )
            same = [q for q in passes[ref] if q["input"] in set(plans[n])]
            entry["reference"] = {
                "workload": ref,
                "wall_s": _spread([q["wall_s"] for q in same]),
            }
        entry["correct"] = not entry["checks"] and entry["failed"] == 0
        report["workloads"][n] = entry
    if trace:
        catalog = by_name()
        for n in names:
            pstats_path = out_dir / f"{n}.pstats"
            profiled = _spawn(n, seeds[n], 0, smoke, env, profile=pstats_path)
            _log(f"  {n}: profiled pass {profiled['wall_s']:.3f}s "
                 f"-> {pstats_path}")
            counted = _spawn(n, seeds[n], 0, smoke, env, registry=True)
            first = passes[n][0]
            layers = {
                **profiled["layers"],
                **counted["layers"],
                **kernel_metrics(first["kernel"], first["ops"]),
            }
            entry = report["workloads"][n]
            wall = entry["metrics"]["wall_s"]["value"]
            layers["trace.overhead_x"] = profiled["wall_s"] / wall
            ref = entry.get("reference")
            layers["obs.attached_overhead_frac"] = (
                wall / ref["wall_s"]["value"] - 1.0 if ref else 0.0
            )
            entry["layers"] = {
                name: {"value": layers[name], "unit": catalog[name].unit}
                for name in sorted(layers)
            }
    report["elapsed_s"] = time.perf_counter() - started
    return report


def summary_line(report: dict[str, Any]) -> dict[str, Any]:
    """The one-line result: every end-to-end metric, or with a trace
    every per-layer metric.  A single workload's metrics keep their
    names; several workloads prefix them with ``<workload>:``."""
    workloads = report["workloads"]
    metrics: dict[str, Any] = {}
    for n, entry in workloads.items():
        prefix = f"{n}:" if len(workloads) > 1 else ""
        source = entry["layers"] if report["trace"] else entry["metrics"]
        for name, m in source.items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    return {
        "correct": all(e["correct"] for e in workloads.values()),
        "attempted": sum(e["attempted"] for e in workloads.values()),
        "failed": sum(e["failed"] for e in workloads.values()),
        "metrics": metrics,
    }


def render(report: dict[str, Any]) -> str:
    """A text table of the end-to-end medians and quartiles."""
    lines = [
        f"{'workload':<24}{'metric':<18}{'median':>14}{'q1':>14}"
        f"{'q3':>14}{'n':>4}"
    ]
    for n, entry in report["workloads"].items():
        for name, m in entry["metrics"].items():
            tag = " (simulated)" if name in DETERMINISTIC else ""
            lines.append(
                f"{n:<24}{name:<18}{m['value']:>14.4f}{m['q1']:>14.4f}"
                f"{m['q3']:>14.4f}{m['n']:>4}{tag}"
            )
        status = "ok" if entry["correct"] else "FAILED"
        lines.append(
            f"{n:<24}{entry['ops']} ops over {entry['inputs']} inputs, "
            f"{entry['ops_failed']} failed, {entry['passes']} passes: "
            f"{status}"
        )
        for check in entry["checks"][:10]:
            lines.append(f"{'':<24}! {check}")
    return "\n".join(lines)
