"""One workload run in a process of its own: ``python -m bench.child CONFIG``.

The harness starts it with a clean environment (no ``REPRO_TRACE``, no
``REPRO_CHAOS``, empty caches) and reads the JSON file it writes to
``CONFIG["result"]``.  Set-ups are timed, then the workload's window; with
``trace`` set, spans are recorded and the per-layer metrics computed from
them.
"""

from __future__ import annotations

import json
import os
import resource
import runpy
import statistics
import sys
from typing import Any, Dict, List, Sequence

from bench import tracing
from bench.workloads import WORKLOADS, Recorder


def _seconds(ops: Sequence[Dict[str, Any]]) -> List[float]:
    return [(op["t1"] - op["t0"]) / 1e9 for op in ops]


def _latencies(ops: Sequence[Dict[str, Any]], kind: str) -> List[float]:
    """Durations of the successful operations of ``kind`` (all, if none succeeded)."""
    of_kind = [op for op in ops if op["kind"] == kind]
    return _seconds([op for op in of_kind if not op["error"]] or of_kind)


def _percentiles(values: Sequence[float]) -> Dict[str, Any]:
    """The median, plus each upper percentile with at least ten samples beyond it."""
    out: Dict[str, Any] = {"n": len(values), "p50": statistics.median(values), "all": list(values)}
    for q in (75, 90):
        if len(values) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = statistics.quantiles(values, n=100)[q - 1]
    return out


def end_to_end(ops: Sequence[Dict[str, Any]], window: Dict[str, Any]) -> Dict[str, float]:
    """The metrics a user of the system sees: those ``BENCHMARK.json`` gates,
    and the ungated ones of ``compare.UNGATED`` that this workload has."""
    in_window = [op for op in ops if op["kind"] in ("cold", "warm")]
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    metrics = {
        "setup_s": statistics.median(_latencies(ops, "setup")),
        "cold_p50_s": statistics.median(_latencies(ops, "cold")),
        "warm_p50_s": statistics.median(_latencies(ops, "warm")),
        "cells_per_s": sum(op["cells"] for op in in_window)
        / ((window["end"] - window["start"]) / 1e9),
        "peak_rss_mib": usage / 1024.0,  # ru_maxrss is in KiB on Linux
    }
    stream = [op["stream_s"] for op in ops if "stream_s" in op]
    if stream:
        metrics["stream_sim_s"] = statistics.median(stream)
    return metrics


def per_layer(
    spans: Sequence[tracing.Span],
    ops: Sequence[Dict[str, Any]],
    window: Dict[str, Any],
) -> Dict[str, float]:
    """The per-layer metrics of a traced run."""
    setups = [op for op in ops if op["kind"] == "setup"]
    cold = [op for op in ops if op["kind"] == "cold"]
    ratio = tracing.overhead(
        [op["t1"] - op["t0"] for op in cold if op["traced"] is True],
        [op["t1"] - op["t0"] for op in cold if op["traced"] is False],
    )
    return tracing.layer_metrics(
        spans,
        setups=[(op["t0"], op["t1"]) for op in setups],
        window=window["traced"],
        cold_ops=sum(1 for op in cold if op["traced"] is True),
        jobs=[op for op in ops if op["traced"] is True and "submitted" in op],
        overhead_ratio=ratio,
    )


def main(argv: Sequence[str]) -> int:
    with open(argv[0], "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    tracer = None
    if cfg["trace"]:
        spans_dir = os.path.join(cfg["workdir"], "spans")
        os.makedirs(spans_dir)
        tracer = tracing.Tracer(spans_dir)
        tracing.install(tracer)
    workload = WORKLOADS[cfg["workload"]](
        cfg["seed"], cfg["smoke"], cfg["workdir"], cfg["repo"], tracer
    )
    if cfg["inject"]:
        runpy.run_path(cfg["inject"], run_name="bench_inject")

    recorder = Recorder(tracer)
    for index in range(1 if cfg["smoke"] else workload.n_setups):
        workload.reset(index)
        if recorder.run("setup", workload.setup, workload.check, True)["raised"]:
            print(f"{workload.name}: set-up {index} raised; no result", file=sys.stderr)
            return 1
    workload.after_setups()
    window = workload.window(recorder, cfg["seconds"])
    ops = recorder.ops

    failed = [op for op in ops if op["error"]]
    result: Dict[str, Any] = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "end_to_end": end_to_end(ops, window),
        "per_layer": None,
        "detail": {
            "window_s": (window["end"] - window["start"]) / 1e9,
            "latency_s": {
                kind: _percentiles(_latencies(ops, kind)) for kind in ("setup", "cold", "warm")
            },
            "errors": [op["error"] for op in failed][:10],
        },
    }
    if tracer is not None:
        spans = tracer.collect()
        result["per_layer"] = per_layer(spans, ops, window)
        with open(os.path.join(cfg["workdir"], "trace.json"), "w", encoding="utf-8") as fh:
            json.dump(tracing.chrome_trace(spans, ops), fh)
    with open(cfg["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
