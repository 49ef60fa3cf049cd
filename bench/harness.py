"""``python -m bench run``: each workload run in a child process of its own.

The child (:mod:`bench.child`) gets a clean environment: every ``REPRO_*``
variable of the caller is dropped (so ``REPRO_TRACE`` and ``REPRO_CHAOS``
are unset), ``REPRO_PARALLELISM`` is 2, and all caches and temporary files
live in a fresh directory under ``--out``.  Peak RSS is therefore that
workload's alone, and set-up time is a first-ever run's.

For every run the harness prints one JSON line on stdout, the last line being
the last run's::

    {"correct": true, "attempted": 31, "failed": 0, "metrics": {"setup_s": {"value": 3.1, "unit": "s"}, ...}}

with the end-to-end metrics of ``BENCHMARK.json``, or its per-layer metrics
when tracing.  All runs go to ``<out>/results.json`` (the input of
``python -m bench compare``), traced runs' spans to
``<out>/trace-<workload>-s<seed>.json`` (Chrome trace-event format), and a
summary table to stderr.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

from bench import compare

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Longest a workload process may take: a whole run has to end within 180 s.
CHILD_TIMEOUT_S = 170


class RunFailed(RuntimeError):
    """A workload run produced no result."""


def load_benchmark(repo: str = REPO) -> Dict[str, Any]:
    with open(os.path.join(repo, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _child_env(work: str, repo: str) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        # One string-hash seed for every run: set and dict layouts, and so
        # their timings, do not vary from run to run.
        PYTHONHASHSEED="0",
        PYTHONPATH=os.path.join(repo, "src"),
        REPRO_PARALLELISM="2",
        REPRO_CACHE_DIR=os.path.join(work, "default-cache"),
        TMPDIR=os.path.join(work, "tmp"),
    )
    return env


def run_child(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    inject: Optional[str],
    out: str,
    repo: str = REPO,
) -> Dict[str, Any]:
    """Run one workload in a fresh process; returns the child's result."""
    os.makedirs(os.path.join(out, "work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-s{seed}-", dir=os.path.join(out, "work"))
    try:
        os.makedirs(os.path.join(work, "tmp"))
        cfg = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "smoke": smoke,
            "inject": os.path.abspath(inject) if inject else None,
            "workdir": work,
            "repo": repo,
            "result": os.path.join(work, "result.json"),
        }
        cfg_path = os.path.join(work, "config.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        # Its own session, so the whole process group (pool workers, the
        # kernel compiler) can be stopped with it.
        proc = subprocess.Popen(
            [sys.executable, "-m", "bench.child", cfg_path],
            cwd=repo,
            env=_child_env(work, repo),
            stdout=2,
            start_new_session=True,
        )
        try:
            rc = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            rc = None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if rc is None:
            raise RunFailed(f"{workload} seed {seed}: no result within {CHILD_TIMEOUT_S} s")
        if rc != 0:
            raise RunFailed(f"{workload} seed {seed}: workload process exited with {rc}")
        with open(cfg["result"], "r", encoding="utf-8") as fh:
            result = json.load(fh)
        if trace:
            shutil.copy(
                os.path.join(work, "trace.json"),
                os.path.join(out, f"trace-{workload}-s{seed}.json"),
            )
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def contract_line(result: Dict[str, Any], trace: bool, config: Dict[str, Any]) -> Dict[str, Any]:
    """The printed result: the metric set of ``BENCHMARK.json``, with units."""
    specs = config["per_layer"] if trace else config["end_to_end"]
    values = result["per_layer"] if trace else result["end_to_end"]
    missing = {spec["name"] for spec in specs} - set(values)
    if missing:
        raise RunFailed(f"metrics {sorted(missing)} of BENCHMARK.json were not measured")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in specs
        },
    }


def _summary(records: List[Dict[str, Any]], config: Dict[str, Any]) -> str:
    """Median of every metric per workload, one line each."""
    specs = compare.specs(config)
    lines = []
    for workload in dict.fromkeys(r["workload"] for r in records):
        runs = [r for r in records if r["workload"] == workload]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        lines.append(f"{workload}: {len(runs)} run(s), {failed}/{attempted} ops failed")
        for name in compare.run_values(runs[0]):
            median = statistics.median(compare.run_values(r)[name] for r in runs)
            lines.append(f"  {name:34s} {median:14.6g} {specs[name]['unit']}")
    return "\n".join(lines)


def run(args) -> int:
    """The ``run`` command; returns the exit status."""
    if not os.path.isfile(os.path.join(REPO, "src", "repro", "__init__.py")):
        print("bench: no program to measure (src/repro is missing)", file=sys.stderr)
        return 2
    config = load_benchmark()
    known = [w["name"] for w in config["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        print(f"bench: unknown workload(s) {unknown}; known: {known}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else config["run_seconds"]
    # Stopped from outside, stop the running workload too (run_child's finally).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    out = os.path.abspath(args.out or os.path.join(REPO, ".bench_build", "bench"))
    os.makedirs(out, exist_ok=True)
    records: List[Dict[str, Any]] = []
    for seed in range(args.seed, args.seed + args.runs):
        for workload in workloads:
            try:
                result = run_child(
                    workload, seed, seconds, bool(args.trace), args.smoke, args.inject, out
                )
                line = contract_line(result, bool(args.trace), config)
            except RunFailed as exc:
                print(f"bench: {exc}", file=sys.stderr)
                return 1
            records.append(
                {
                    "workload": workload,
                    "seed": seed,
                    "trace": bool(args.trace),
                    "seconds": seconds,
                    "smoke": args.smoke,
                    **line,
                    "end_to_end": result["end_to_end"],
                    "detail": result["detail"],
                }
            )
            with open(os.path.join(out, "results.json"), "w", encoding="utf-8") as fh:
                json.dump({"runs": records}, fh, indent=1)
            print(json.dumps(line), flush=True)
    print(_summary(records, config), file=sys.stderr)
    return 0
