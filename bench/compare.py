"""``python -m bench compare`` and ``python -m bench calibrate``.

Both read ``results.json`` files written by ``python -m bench run``.  A
metric's *spread* within one file is the distance between the first and
third quartile of its values (``statistics.quantiles(values, n=4)``) as a
share of their median.
"""

from __future__ import annotations

import json
import math
import statistics
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: The smallest bound a metric gets, and the largest the format allows.
MIN_BOUND = 0.10
MAX_BOUND = 0.25

#: End-to-end metrics that runs measure but ``BENCHMARK.json`` does not gate:
#: not every workload has them (``stream_sim_s``), or they cannot repeat
#: within ``MAX_BOUND`` on every workload (``warm_p50_s``: millisecond reads
#: on one CPU swing with that CPU's speed).  ``compare`` judges them against
#: the widest end-to-end bound, and they never fail it.
UNGATED: Dict[str, Dict[str, str]] = {
    "warm_p50_s": {"unit": "s", "better": "lower"},
    "stream_sim_s": {"unit": "s", "better": "lower"},
}


def specs(config: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Every metric a run can report: ``BENCHMARK.json``'s and ``UNGATED``."""
    gated = {spec["name"]: spec for spec in config["end_to_end"] + config["per_layer"]}
    return {**UNGATED, **gated}


def run_values(run: Dict[str, Any]) -> Dict[str, float]:
    """A run's metric values: per-layer when traced, else every end-to-end one."""
    if run["trace"]:
        return {name: metric["value"] for name, metric in run["metrics"].items()}
    return run["end_to_end"]


def load(path: str) -> Dict[str, Dict[str, List[float]]]:
    """Metric values per workload: ``{workload: {metric: [value per run]}}``."""
    with open(path, "r", encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    out: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        per_metric = out.setdefault(run["workload"], {})
        for name, value in run_values(run).items():
            per_metric.setdefault(name, []).append(value)
    return out


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(
    base: Sequence[float], change: Sequence[float], better: str, bound: Optional[float]
) -> str:
    """agree, regressed, improved or unresolved (spread wider than the bound).

    With a spread wider than the bound a change counts as improved only when
    every one of its runs reads better than every run of the base.
    """
    if bound is None:
        return "-"
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    worse = sign * (statistics.median(change) - base_median) / abs(base_median)
    if max(spread(base), spread(change)) > bound:
        all_better = max(change) < min(base) if better == "lower" else min(change) > max(base)
        return "improved" if all_better else "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "agree"


def compare(base_path: str, change_path: str, config: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per workload and metric found in both files."""
    base, change = load(base_path), load(change_path)
    known = specs(config)
    widest = max(spec["bound"] for spec in config["end_to_end"])
    rows = []
    for workload, metrics in base.items():
        for name, a in metrics.items():
            b = change.get(workload, {}).get(name)
            if b is None or name not in known:
                continue
            spec = known[name]
            gated = "bound" in spec
            if gated:
                bound = spec["bound"]
            elif name in UNGATED:
                bound = widest
            else:
                bound = None  # per-layer metrics are reported, not judged
            a_med, b_med = statistics.median(a), statistics.median(b)
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": spec["unit"],
                    "base": a_med,
                    "change": b_med,
                    "rel": (b_med - a_med) / abs(a_med) if a_med else 0.0,
                    "bound": bound,
                    "gated": gated,
                    "verdict": verdict(a, b, spec["better"], bound),
                }
            )
    return rows


def render(rows: Sequence[Dict[str, Any]]) -> str:
    """The rows as a table; an ungated metric's bound is in parentheses."""
    lines = [
        f"{'workload':10s} {'metric':34s} {'base':>12s} {'change':>12s} {'diff':>8s} {'bound':>6s}  verdict"
    ]
    for r in rows:
        bound = "-"
        if r["bound"] is not None:
            bound = f"{100 * r['bound']:.0f}%" if r["gated"] else f"({100 * r['bound']:.0f}%)"
        lines.append(
            f"{r['workload']:10s} {r['metric']:34s} {r['base']:12.6g} {r['change']:12.6g} "
            f"{100 * r['rel']:+7.1f}% {bound:>6s}  {r['verdict']}"
        )
    return "\n".join(lines)


def calibrate(
    set_paths: Sequence[str], traced_path: Optional[str], config: Dict[str, Any]
) -> Dict[str, Any]:
    """Medians, quartiles and spreads of each set, and the bounds they suggest.

    A gated metric's suggested bound is max(10%, 2x the spread of the set
    medians, 3x the largest spread within a set), rounded up to a whole
    percent, at most 25%; ``setup_s`` always gets the largest bound.
    Ungated end-to-end metrics are summarized the same way, with the bound
    they would need.
    """
    sets = [load(path) for path in set_paths]
    doc: Dict[str, Any] = {"sets": list(set_paths), "workloads": {}, "bounds": {}}
    for name in [spec["name"] for spec in config["end_to_end"]] + list(UNGATED):
        needed = 0.0
        for workload in sets[0]:
            if name not in sets[0][workload]:
                continue
            per_set = [_summary(s[workload][name]) for s in sets]
            medians = [p["median"] for p in per_set]
            between = (max(medians) - min(medians)) / abs(statistics.median(medians))
            needed = max(needed, 2 * between, 3 * max(p["spread"] for p in per_set))
            doc["workloads"].setdefault(workload, {})[name] = {
                "sets": per_set,
                "spread_of_medians": between,
            }
        if name in UNGATED:
            doc["bounds"][name] = {"needed": needed, "bound": None}
        else:
            whole_percent = math.ceil(100 * needed) / 100
            bound = MAX_BOUND if name == "setup_s" else min(MAX_BOUND, max(MIN_BOUND, whole_percent))
            doc["bounds"][name] = {"needed": needed, "bound": bound}
    if traced_path:
        doc["traced"] = {
            "set": traced_path,
            "workloads": {
                workload: {name: _summary(values) for name, values in metrics.items()}
                for workload, metrics in load(traced_path).items()
            },
        }
    return doc


def _summary(values: Sequence[float]) -> Dict[str, float]:
    q1, median, q3 = quartiles(values)
    return {"n": len(values), "q1": q1, "median": median, "q3": q3, "spread": spread(values)}
