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

The measured record is printed (run with ``-s`` to see it), not written under
``benchmarks/results/``: its timings change on every run.
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


def test_biggraph_generate_and_simulate_bounded_rss():
    """10^6 tasks: direct-to-store generation + streaming replay, RSS-capped."""
    width = max(int(round(N_TASKS ** 0.5)), 1)
    depth = max((N_TASKS + width - 1) // width, 1)
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    env.pop("REPRO_SIM_CHUNK_TASKS", None)  # default chunking is what we certify
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(depth), str(width)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    stats = json.loads(proc.stdout.strip().splitlines()[-1])

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
