"""Checks of the benchmark harness at smoke size (``pytest bench/test_bench_harness.py``).

Every workload runs in a child process exactly as ``python -m bench run``
starts it; faults are injected with ``--inject`` files written here.
"""

import json
import os
import subprocess
import sys

import pytest

from bench import compare
from bench.harness import REPO, load_benchmark

# Slow for the quick suite (about 35 s), so kept out of ``pytest -m quick``.
pytestmark = pytest.mark.slow

SLOW_KERNEL = """
import time
from repro.simulator import backend

_run_batch = backend.CExtBackend.run_batch


def run_batch(self, *args):
    t0 = time.perf_counter()
    rc = _run_batch(self, *args)
    time.sleep(time.perf_counter() - t0)  # every kernel call takes twice as long
    return rc


backend.CExtBackend.run_batch = run_batch
"""

CORRUPT_ROWS = """
from repro.analysis import runner

_run_cell = runner.run_cell


def run_cell(spec):
    row = _run_cell(spec)
    if isinstance(row, dict) and row.get("policy") == "app_fit":
        row = {**row, "meets_threshold": False}
    return row


runner.run_cell = run_cell
"""


def _bench(out, *args, inject=None):
    """Run ``python -m bench run --smoke``; returns the printed result lines."""
    cmd = [sys.executable, "-m", "bench", "run", "--smoke", "--out", str(out), *args]
    if inject is not None:
        path = out.parent / f"{out.name}-inject.py"
        path.write_text(inject)
        cmd += ["--inject", str(path)]
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return [json.loads(line) for line in proc.stdout.splitlines()]


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "baseline"
    # synthetic last and serve just before: next to the slow-kernel runs
    # (synthetic, then serve) they are compared with.
    order = ["figures", "biggraph", "serve", "synthetic"]
    return out, _bench(out, "--seconds", "2", *[arg for w in order for arg in ("--workload", w)])


def test_every_workload_emits_the_end_to_end_metrics(baseline):
    config = load_benchmark()
    names = {spec["name"]: spec["unit"] for spec in config["end_to_end"]}
    out, lines = baseline
    assert len(lines) == len(config["workloads"])
    for line in lines:
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert {k: v["unit"] for k, v in line["metrics"].items()} == names
        assert all(v["value"] > 0 for v in line["metrics"].values())


# Right after the baseline, so both measure the machine at about the same speed.
def test_compare_flags_a_slower_kernel_only_where_it_runs(baseline, tmp_path):
    out, _ = baseline
    slow = tmp_path / "slow"
    _bench(slow, "--seconds", "2", "--workload", "synthetic", "--workload", "serve", inject=SLOW_KERNEL)
    rows = {
        (r["workload"], r["metric"]): r["verdict"]
        for r in compare.compare(
            os.path.join(out, "results.json"), os.path.join(slow, "results.json"), load_benchmark()
        )
    }
    assert rows[("synthetic", "cells_per_s")] == "regressed"
    assert rows[("serve", "warm_p50_s")] == "agree"


def test_traced_run_emits_the_per_layer_metrics(tmp_path):
    config = load_benchmark()
    (line,) = _bench(tmp_path / "traced", "--seconds", "1", "--workload", "serve", "--trace")
    assert line["correct"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        spec["name"]: spec["unit"] for spec in config["per_layer"]
    }
    assert line["metrics"]["serve.drain_pct"]["value"] > 0
    assert line["metrics"]["trace.coverage_pct"]["value"] > 0
    trace = json.loads((tmp_path / "traced" / "trace-serve-s0.json").read_text())
    assert any(e["name"] == "serve.drain" for e in trace["traceEvents"])


def test_corrupted_output_counts_as_failed_op(tmp_path):
    (line,) = _bench(
        tmp_path / "corrupt", "--seconds", "0.5", "--workload", "synthetic", inject=CORRUPT_ROWS
    )
    assert not line["correct"]
    assert line["failed"] >= 1


def test_verdicts():
    assert compare.verdict([1.0, 1.0], [1.05, 1.05], "lower", 0.1) == "agree"
    assert compare.verdict([1.0, 1.0], [1.2, 1.2], "lower", 0.1) == "regressed"
    assert compare.verdict([1.0, 1.0], [0.8, 0.8], "lower", 0.1) == "improved"
    assert compare.verdict([10.0, 10.0], [8.0, 8.0], "higher", 0.1) == "regressed"
    # Spread wider than the bound: unresolved unless every run is better.
    assert compare.verdict([1.0, 1.5, 1.0, 1.5], [1.1, 1.1], "lower", 0.1) == "unresolved"
    assert compare.verdict([1.0, 1.5, 1.0, 1.5], [0.5, 0.6], "lower", 0.1) == "improved"
