"""Memory bound for million-task graphs: generate + simulate out-of-core.

Not a paper figure — a scalability guardrail for the direct
spec→CompiledGraph path (ISSUE 10).  A >=10^6-task layered graph is
generated directly into a compiled-graph store and replayed through the
pure-python streaming simulator in a *subprocess* (so ``ru_maxrss`` measures
exactly this workload, not whatever the benchmark session peaked at before).

Two assertions:

* absolute peak RSS of the whole generate+simulate run stays under the
  acceptance ceiling (~1.5 GiB);
* the *simulation phase alone* adds only a bounded RSS delta over the
  post-generation baseline — small enough that a regression back to fully
  materialised replay-term arrays (~80 MiB at 10^6 tasks, plus records)
  would trip it.

A second test runs a whole ``workload_sweep`` cell of every selection policy
over a 10^6-task graph, also in a subprocess: the fast cells select on the
compiled arrays alone, so no policy builds the object graph, and the run stays
under the same ceiling.

The measured records are printed (run with ``-s`` to see them), not written
under ``benchmarks/results/``: their timings change on every run.
"""

import json
import os
import subprocess
import sys

N_TASKS = 1_000_000
PEAK_CEILING_MIB = 1536.0
SIM_DELTA_CEILING_MIB = 64.0

_CHILD = r"""
import json, resource, sys, tempfile, shutil, time

def rss_mib():
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0

from repro.workloads import parse_workload
from repro.workloads.direct import generate_compiled_to_store
from repro.runtime.compiled import CompiledGraphStore
from repro.simulator.execution import SimulationConfig
from repro.simulator.fastpath import SimGraphCache, simulate_compiled_batch
from repro.simulator.machine import MachineSpec

depth, width = map(int, sys.argv[1:3])
root = tempfile.mkdtemp(prefix="repro-biggraph-bench-")
try:
    spec = parse_workload(f"layered:depth={depth},width={width},seed=1")
    t0 = time.perf_counter()
    generate_compiled_to_store(spec, 1.0, CompiledGraphStore(root))
    gen_s = time.perf_counter() - t0
    compiled = CompiledGraphStore(root).load(spec.canonical, 1.0, None)
    cache = SimGraphCache.from_compiled(compiled)
    base_mib = rss_mib()
    t1 = time.perf_counter()
    (result,) = simulate_compiled_batch(
        cache,
        MachineSpec(n_nodes=4, cores_per_node=64),
        SimulationConfig(crash_probability=0.001, collect_records=False),
        seeds=(0,),
        backend="python",
    )
    print(json.dumps({
        "n_tasks": cache.n,
        "gen_s": round(gen_s, 2),
        "sim_s": round(time.perf_counter() - t1, 2),
        "makespan_s": result.makespan_s,
        "base_rss_mib": round(base_mib, 1),
        "sim_delta_mib": round(rss_mib() - base_mib, 1),
        "peak_rss_mib": round(rss_mib(), 1),
    }))
finally:
    shutil.rmtree(root, ignore_errors=True)
"""


_SWEEP_CHILD = r"""
import json, resource, sys, tempfile, shutil, time

from repro.analysis.experiments import SWEEP_POLICIES, workload_sweep
from repro.analysis.runner import configure_graph_cache

root = tempfile.mkdtemp(prefix="repro-biggraph-sweep-")
try:
    configure_graph_cache(enabled=True, root=root)
    t0 = time.perf_counter()
    result = workload_sweep(
        [f"layered:depth={sys.argv[1]},width={sys.argv[2]},seed=1"],
        policies=SWEEP_POLICIES,
        multipliers=(10.0,),
        fault_rates=(0.0,),
        parallelism=1,
    )
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "rows": len(result.rows),
        "n_tasks": [row["n_tasks"] for row in result.rows],
        "sweep_s": round(time.perf_counter() - t0, 2),
        "peak_rss_mib": round(
            peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0, 1
        ),
    }))
finally:
    shutil.rmtree(root, ignore_errors=True)
"""


def _run_child(code, depth, width):
    """Run ``code`` in a fresh interpreter on ``src/``; its last stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    env.pop("REPRO_SIM_CHUNK_TASKS", None)  # default chunking is what we certify
    proc = subprocess.run(
        [sys.executable, "-c", code, str(depth), str(width)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _shape():
    """(depth, width) of the layered graph with at least ``N_TASKS`` tasks."""
    width = max(int(round(N_TASKS ** 0.5)), 1)
    return max((N_TASKS + width - 1) // width, 1), width


def test_biggraph_generate_and_simulate_bounded_rss():
    """10^6 tasks: direct-to-store generation + streaming replay, RSS-capped."""
    depth, width = _shape()
    stats = _run_child(_CHILD, depth, width)

    assert stats["n_tasks"] >= N_TASKS
    assert stats["makespan_s"] > 0.0
    assert stats["peak_rss_mib"] < PEAK_CEILING_MIB, stats
    assert stats["sim_delta_mib"] < SIM_DELTA_CEILING_MIB, stats

    print(
        "\n".join(
            [
                "",
                "Out-of-core million-task graph (layered "
                f"depth={depth} width={width}, python streaming backend)",
                f"  tasks          : {stats['n_tasks']}",
                f"  generate+store : {stats['gen_s']} s",
                f"  simulate       : {stats['sim_s']} s "
                f"(makespan {stats['makespan_s']:.2f} s)",
                f"  peak RSS       : {stats['peak_rss_mib']} MiB "
                f"(ceiling {PEAK_CEILING_MIB:.0f})",
                f"  sim RSS delta  : {stats['sim_delta_mib']} MiB "
                f"(ceiling {SIM_DELTA_CEILING_MIB:.0f})",
            ]
        )
    )


def test_biggraph_sweep_of_every_policy_bounded_rss():
    """10^6 tasks: one workload-sweep cell per selection policy, RSS-capped."""
    from repro.analysis.experiments import SWEEP_POLICIES

    depth, width = _shape()
    stats = _run_child(_SWEEP_CHILD, depth, width)

    assert stats["rows"] == len(SWEEP_POLICIES)
    assert all(n >= N_TASKS for n in stats["n_tasks"]), stats
    assert stats["peak_rss_mib"] < PEAK_CEILING_MIB, stats

    print(
        "\n".join(
            [
                "",
                f"Workload sweep of all {len(SWEEP_POLICIES)} policies over layered "
                f"depth={depth} width={width} (one process)",
                f"  sweep    : {stats['sweep_s']} s",
                f"  peak RSS : {stats['peak_rss_mib']} MiB "
                f"(ceiling {PEAK_CEILING_MIB:.0f})",
            ]
        )
    )
