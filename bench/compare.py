"""``python -m bench compare BASE.json NEW.json``: a verdict per metric.

For every workload of BASE, one row per end-to-end metric with
each side's median, quartiles and pass count, the change of the median,
and a verdict:

``worse``
    the median got worse by more than the metric's bound;
``unresolved``
    either side's spread (quartile distance over median) is wider than
    the bound, so the comparison cannot tell, unless every sample of
    the new report beats every sample of the base (then ``better``);
``better``
    the median improved by more than the base's own spread;
``within-bound``
    anything else.

Simulated delivery quantiles, ``ops``, ``ops_failed`` and the exact
per-layer counts are compared for equality when both reports ran the
same inputs, that is the same seed and pass count: ``identical``, or
``better`` / ``worse`` for the delivery quantiles and ``ops_failed``,
``changed`` for the rest.  A workload of BASE that NEW lacks gets one
``missing`` row.  The exit status is 1 when any row is ``worse`` or
``missing``, or when the share of failed operations grew.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from bench.catalog import DETERMINISTIC, END_TO_END

__all__ = ["verdict", "compare", "main"]

#: Per-layer metrics that measure host time, not work; never compared
#: for equality.
_TIMED_LAYER_METRICS = (".self_frac", "trace.overhead_x",
                        "obs.attached_overhead_frac")


def _worse_by(base: float, new: float, better: str) -> float:
    """Relative change of the median, positive when it got worse."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    rel = (new - base) / abs(base)
    return rel if better == "lower" else -rel


def _spread(m: dict[str, Any]) -> float:
    return (m["q3"] - m["q1"]) / abs(m["value"]) if m["value"] else 0.0


def verdict(base: dict[str, Any], new: dict[str, Any], better: str,
            bound: float) -> str:
    """The verdict for one noisy metric (median/q1/q3/samples dicts)."""
    worse_by = _worse_by(base["value"], new["value"], better)
    if max(_spread(base), _spread(new)) > bound:
        if better == "lower":
            all_better = max(new["samples"]) < min(base["samples"])
        else:
            all_better = min(new["samples"]) > max(base["samples"])
        return "better" if all_better else "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > _spread(base):
        return "better"
    return "within-bound"


def _exact(base: float, new: float, better: str | None) -> str:
    if base == new:
        return "identical"
    if better is None:
        return "changed"
    return "worse" if _worse_by(base, new, better) > 0 else "better"


def compare(base: dict[str, Any], new: dict[str, Any]) -> tuple[list[dict], bool]:
    """Rows for every workload of *base*, and whether to fail."""
    rows: list[dict] = []
    failing = False
    for name, b in base["workloads"].items():
        n = new["workloads"].get(name)
        if n is None:
            # NEW measured less than BASE did: that cannot pass.
            rows.append({"workload": name, "metric": "workload",
                         "base": {"value": b["attempted"]},
                         "new": {"value": 0}, "verdict": "missing"})
            failing = True
            continue
        same_inputs = (b["seed"], b["inputs"]) == (n["seed"], n["inputs"])
        for m in END_TO_END:
            bm, nm = b["metrics"][m.name], n["metrics"][m.name]
            if m.name in DETERMINISTIC and same_inputs:
                v = _exact(bm["value"], nm["value"], m.better)
            else:
                v = verdict(bm, nm, m.better, m.bound)
            rows.append({
                "workload": name, "metric": m.name, "base": bm, "new": nm,
                "delta": _worse_by(bm["value"], nm["value"], "lower"),
                "verdict": v,
            })
        if same_inputs:
            for key in ("ops", "ops_failed"):
                v = _exact(b[key], n[key], "lower" if key == "ops_failed" else None)
                rows.append({"workload": name, "metric": key,
                             "base": {"value": b[key]},
                             "new": {"value": n[key]}, "verdict": v})
            for key in sorted(set(b.get("layers", {})) & set(n.get("layers", {}))):
                if key.endswith(_TIMED_LAYER_METRICS):
                    continue
                bv, nv = b["layers"][key]["value"], n["layers"][key]["value"]
                rows.append({"workload": name, "metric": key,
                             "base": {"value": bv}, "new": {"value": nv},
                             "verdict": _exact(bv, nv, None)})
        base_share = b["failed"] / max(1, b["attempted"])
        new_share = n["failed"] / max(1, n["attempted"])
        if new_share > base_share:
            failing = True
            rows.append({"workload": name, "metric": "failed_share",
                         "base": {"value": base_share},
                         "new": {"value": new_share}, "verdict": "worse"})
    failing = failing or any(r["verdict"] == "worse" for r in rows)
    return rows, failing


def _cell(m: dict[str, Any]) -> str:
    if "q1" not in m:
        return f"{m['value']:.6g}"
    return (f"{m['value']:.6g} [{m['q1']:.6g}-{m['q3']:.6g}] "
            f"n={m['n']}")


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':<20}{'metric':<34}{'base':<40}{'new':<40}"
             f"{'delta':>9}  verdict"]
    for r in rows:
        delta = f"{r['delta']:+.2%}" if "delta" in r else ""
        lines.append(
            f"{r['workload']:<20}{r['metric']:<34}{_cell(r['base']):<40}"
            f"{_cell(r['new']):<40}{delta:>9}  {r['verdict']}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench compare")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text())
    new = json.loads(args.new.read_text())
    rows, failing = compare(base, new)
    # Identical exact counts are only tallied: there are dozens of them.
    print(render([
        r for r in rows
        if r["verdict"] != "identical" or r["metric"] in DETERMINISTIC
    ]))
    counts: dict[str, int] = {}
    for r in rows:
        counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
    print(", ".join(f"{k}: {v}" for k, v in sorted(counts.items())))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
