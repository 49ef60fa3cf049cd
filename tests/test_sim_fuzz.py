"""Differential fuzzing of the simulator: every execution of the loop agrees.

Hypothesis draws a graph, a machine (1-4 nodes, 1-6 cores, 0-2 spares),
crash and SDC probabilities (exactly 0, exactly 1, or in [0.001, 0.3]), a
replicated subset (all tasks, none, or every k-th), memory contention on or
off, and a seed.  The graph is either a small synthetic workload (one of the
six families, every structural parameter at or above its ``Param.minimum``)
or a raw random DAG, imported as a JSON trace, whose two-valued durations and
output sizes make many events share a timestamp, across nodes too.  The
reference replays its object graph, the fast paths its direct compiled form.
Then these must all be equal, bit for bit and record for record:

* the reference loop, :func:`repro.simulator.execution.simulate_graph`;
* the python backend's loop at chunk sizes 1, 7 and n;
* every lane of a 3-seed ``cext`` batch.

The default hypothesis profile runs 30 examples per test, the nightly
sanitizer step's ``nightly`` profile about 1,000.
"""

import json
import os
import tempfile
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simulator.backend import BackendUnavailable, resolve_backend
from repro.simulator.execution import SimulationConfig, simulate_graph
from repro.simulator.fastpath import (
    SimGraphCache,
    simulate_compiled,
    simulate_compiled_batch,
)
from repro.simulator.machine import MachineSpec
from repro.workloads import WorkloadBenchmark, family_names, generate_compiled, parse_workload

#: Structural parameters of each synthetic family, drawn from the family's
#: ``Param.minimum`` up to a size that keeps graphs at tens of tasks.
_STRUCTURE = {
    "layered": {"depth": st.integers(2, 6), "width": st.integers(1, 6), "fanin": st.integers(1, 4)},
    "erdos": {
        "tasks": st.integers(4, 40),
        "p": st.floats(0.0, 1.0),
        "sampling": st.sampled_from(["dense", "skip"]),
    },
    "forkjoin": {"stages": st.integers(1, 3), "width": st.integers(1, 6)},
    "pipeline": {"stages": st.integers(2, 5), "items": st.integers(2, 6)},
    "wavefront": {"rows": st.integers(2, 6), "cols": st.integers(2, 6)},
    "mapreduce": {"maps": st.integers(2, 6), "reduces": st.integers(1, 4), "rounds": st.integers(1, 3)},
}

_PROBABILITY = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.001, 0.3))


def test_every_synthetic_family_is_fuzzed():
    assert set(_STRUCTURE) == set(family_names()) - {"trace"}


@st.composite
def _family_graphs(draw):
    """A synthetic workload's (object graph, compiled graph)."""
    family = draw(st.sampled_from(sorted(_STRUCTURE)))
    params = {name: draw(strategy) for name, strategy in _STRUCTURE[family].items()}
    params.update(
        seed=draw(st.integers(0, 2**32 - 1)),
        # A 10 us mean against multi-MiB blocks makes memory contention bind.
        mean_ms=draw(st.sampled_from([0.01, 5.0])),
        cv=draw(st.sampled_from([0.0, 0.3, 1.0])),
        block_kib=draw(st.sampled_from([1e-3, 16.0, 4096.0])),
        block_cv=draw(st.sampled_from([0.0, 0.5])),
    )
    spec = parse_workload(f"{family}:" + ",".join(f"{k}={v}" for k, v in params.items()))
    return WorkloadBenchmark(spec, scale=1.0).build_graph(), generate_compiled(spec, 1.0)


@st.composite
def _raw_dags(draw):
    """A random DAG's (object graph, compiled graph), through a JSON trace.

    Task ``i`` depends on a random subset of the tasks before it.  Durations
    of 1 or 2 ms and outputs of 4 or 8 KiB make events tie: equal work gives
    equal release times, and equal bytes equal network delays.
    """
    tasks = [
        {
            "id": i,
            "duration_s": draw(st.sampled_from([0.001, 0.002])),
            "output_bytes": draw(st.sampled_from([4096, 8192])),
            "deps": sorted(draw(st.sets(st.integers(0, i - 1), max_size=i))) if i else [],
        }
        for i in range(draw(st.integers(1, 40)))
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dag.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"name": "raw-dag", "tasks": tasks}, fh)
        spec = parse_workload(f"trace:file={path}")
        return WorkloadBenchmark(spec, scale=1.0).build_graph(), generate_compiled(spec, 1.0)


@st.composite
def _cases(draw, graphs=_family_graphs()):
    """A (graph, compiled graph, machine, config); the config collects records."""
    graph, compiled = draw(graphs)
    machine = MachineSpec(
        n_nodes=draw(st.integers(1, 4)),
        cores_per_node=draw(st.integers(1, 6)),
        spare_cores_per_node=draw(st.integers(0, 2)),
    )
    replication = draw(st.one_of(st.sampled_from(["all", "none"]), st.integers(1, 5)))
    config = SimulationConfig(
        replicate_all=replication == "all",
        replicated_ids=(
            frozenset(graph.task_ids()[::replication]) if isinstance(replication, int) else None
        ),
        crash_probability=draw(_PROBABILITY),
        sdc_probability=draw(_PROBABILITY),
        model_memory_contention=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
        collect_records=True,
    )
    return graph, compiled, machine, config


def _assert_identical(got, ref, where):
    """Every aggregate and every per-task record equal, bit for bit."""
    fields = (
        "makespan_s", "total_work_s", "total_overhead_s", "total_recovery_s",
        "crashes_injected", "sdcs_injected", "replicated_tasks",
    )
    assert [getattr(got, f) for f in fields] == [getattr(ref, f) for f in fields], where
    assert got.records == ref.records, where


def _cext_available():
    try:
        resolve_backend("cext")
    except BackendUnavailable:
        return False
    return True


def _check_python_loop(case):
    graph, compiled, machine, config = case
    ref = simulate_graph(graph, machine, config)
    for chunk in (1, 7, compiled.n):
        with mock.patch.dict(os.environ, {"REPRO_SIM_CHUNK_TASKS": str(chunk)}):
            got = simulate_compiled(
                SimGraphCache(compiled=compiled), machine, config, backend="python"
            )
        _assert_identical(got, ref, (machine, config, chunk))


def _check_cext_lanes(case, seeds):
    graph, compiled, machine, config = case
    lanes = simulate_compiled_batch(
        SimGraphCache(compiled=compiled), machine, config, seeds=seeds, backend="cext"
    )
    for seed, got in zip(seeds, lanes):
        ref = simulate_graph(graph, machine, replace(config, seed=seed))
        _assert_identical(got, ref, (machine, config, seed))


_SEEDS = st.lists(st.integers(0, 2**32 - 1), min_size=3, max_size=3)
_needs_cext = pytest.mark.skipif(not _cext_available(), reason="cext backend unavailable")


@given(_cases())
def test_python_loop_matches_reference_at_every_chunk_size(case):
    _check_python_loop(case)


@_needs_cext
@given(_cases(), _SEEDS)
def test_cext_lanes_match_reference(case, seeds):
    _check_cext_lanes(case, seeds)


@given(_cases(_raw_dags()))
def test_python_loop_matches_reference_on_raw_dags(case):
    _check_python_loop(case)


@_needs_cext
@given(_cases(_raw_dags()), _SEEDS)
def test_cext_lanes_match_reference_on_raw_dags(case, seeds):
    _check_cext_lanes(case, seeds)
