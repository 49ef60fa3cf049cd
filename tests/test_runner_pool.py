"""The engine's worker pool and its one-build-per-graph rule.

An :class:`ExperimentEngine` forks one process pool at its first parallel
map and keeps it for every later map, and each compiled graph is built once
per run: a parallel map builds the graphs its cells declare before it sends
them, and threads of one process that miss the same graph wait for one
build.  These tests pin the declarations against what the cells read, the
build counts, and the pool's lifecycle (reuse, close, drop, a killed worker).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import threading
import time

import pytest

from repro.analysis import runner
from repro.analysis.experiments import SWEEP_POLICIES
from repro.analysis.runner import (
    ExperimentEngine,
    clear_caches,
    compiled_sim_cache,
    configure_graph_cache,
    default_parallelism,
    make_spec,
    run_cell,
    spec_graphs,
)
from repro.cli import main
from repro.obs.report import read_trace
from repro.runtime.compiled import CompiledGraphStore
from repro.workloads import canonical_workload_name

SCALE = 0.05

#: One fast spec per registered cell kind (one per policy where the cell
#: selects with a named policy).
FAST_SPECS = {
    "table1_row": [make_spec("table1_row", "cholesky", SCALE)],
    "fig3_cell": [make_spec("fig3_cell", "cholesky", SCALE, multiplier=10.0)],
    "fig4_row": [make_spec("fig4_row", "stream", SCALE)],
    "fig5_curve": [
        make_spec("fig5_curve", "fft", SCALE, core_counts=(1, 4), fault_rate=0.01)
    ],
    "fig6_curve": [
        make_spec("fig6_curve", "nbody", SCALE, node_counts=(4, 16), fault_rate=0.01)
    ],
    "ablation_policies_cell": [
        make_spec("ablation_policies_cell", "cholesky", SCALE, multiplier=10.0)
    ],
    "rate_sweep_cell": [
        make_spec("rate_sweep_cell", "cholesky", SCALE, multiplier=5.0)
    ],
    "policy_cell": [
        make_spec("policy_cell", "stream", SCALE, policy=policy, multiplier=10.0)
        for policy in SWEEP_POLICIES
    ],
    "workload_cell": [
        make_spec(
            "workload_cell",
            "layered:depth=6,width=4,seed=1",
            1.0,
            policy=policy,
            multiplier=10.0,
        )
        for policy in SWEEP_POLICIES
    ],
}

#: Cells of a small grid that reads registry graphs (cheap at SCALE).
GRID = [
    make_spec("fig3_cell", name, SCALE, multiplier=mult)
    for name in ("cholesky", "stream")
    for mult in (10.0, 5.0)
]


@pytest.fixture(autouse=True)
def _fresh_memo():
    configure_graph_cache(enabled=None, root=None)
    clear_caches()
    yield
    configure_graph_cache(enabled=None, root=None)
    clear_caches()


def _children() -> set:
    return {p.pid for p in multiprocessing.active_children()}


# ---------------------------------------------------------------------------------
# declarations
# ---------------------------------------------------------------------------------


def test_every_cell_kind_has_a_declaration_case():
    import repro.analysis.experiments  # noqa: F401  (registers the cell kinds)

    assert set(FAST_SPECS) == set(runner._CELL_KINDS)


@pytest.mark.parametrize(
    "spec",
    [spec for specs in FAST_SPECS.values() for spec in specs],
    ids=lambda spec: f"{spec.kind}-{spec.param('policy') or spec.benchmark}",
)
def test_declared_graphs_are_the_graphs_the_cell_reads(spec, monkeypatch):
    import repro.analysis.experiments as experiments

    read = []

    def recording(name, scale, n_nodes=None):
        read.append((name, scale, n_nodes))
        return compiled_sim_cache(name, scale, n_nodes)

    monkeypatch.setattr(experiments, "compiled_sim_cache", recording)
    run_cell(spec)
    assert spec_graphs(spec) == read


@pytest.mark.parametrize(
    "spec",
    [spec for specs in FAST_SPECS.values() for spec in specs],
    ids=lambda spec: f"{spec.kind}-{spec.param('policy') or spec.benchmark}",
)
def test_fast_cells_build_no_object_graph(spec, monkeypatch):
    import repro.analysis.experiments as experiments

    def refuse(*key):
        raise AssertionError(f"a fast {spec.kind} cell built the object graph {key}")

    monkeypatch.setattr(experiments, "benchmark_graph", refuse)
    run_cell(spec)


def test_reference_specs_declare_no_graphs():
    for specs in FAST_SPECS.values():
        for spec in specs:
            reference = make_spec(
                spec.kind, spec.benchmark, spec.scale, fast=False, **dict(spec.params)
            )
            assert spec_graphs(reference) == []


# ---------------------------------------------------------------------------------
# one build per graph
# ---------------------------------------------------------------------------------


def test_threads_missing_one_graph_share_one_build(tmp_path, monkeypatch):
    """More threads than cores miss one key at a barrier, with a short switch
    interval: all get the same cache, and the graph is compiled once."""
    configure_graph_cache(enabled=True, root=str(tmp_path))
    compiles = []
    real_compile = runner.compile_graph

    def slow_compile(graph):
        compiles.append(graph)
        time.sleep(0.2)  # hold the build so the other threads arrive during it
        return real_compile(graph)

    monkeypatch.setattr(runner, "compile_graph", slow_compile)
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    caches = []

    def miss():
        barrier.wait()
        caches.append(compiled_sim_cache("cholesky", SCALE))

    threads = [threading.Thread(target=miss) for _ in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(caches) == n_threads
    assert all(cache is caches[0] for cache in caches)
    assert len(compiles) == 1


def test_every_spelling_of_a_workload_is_built_and_stored_once(tmp_path, monkeypatch):
    """A non-canonical workload name generates its graph once, under the
    canonical name, compiles no object graph, and gets the canonical name's
    cache."""
    configure_graph_cache(enabled=True, root=str(tmp_path))
    compiles = []
    real_compile = runner.compile_graph

    def recording_compile(graph):
        compiles.append(graph)
        return real_compile(graph)

    monkeypatch.setattr(runner, "compile_graph", recording_compile)
    spelling = "layered:width=4,depth=6"
    canonical = canonical_workload_name(spelling)
    assert canonical != spelling
    cache = compiled_sim_cache(spelling, 1.0)
    assert compiles == []
    assert [entry["benchmark"] for entry in CompiledGraphStore(str(tmp_path)).ls()] == [
        canonical
    ]
    assert compiled_sim_cache(canonical, 1.0) is cache


def test_cli_run_builds_each_graph_once_on_one_pool(tmp_path, monkeypatch):
    """Two targets on an empty cache: one compile per distinct graph, and
    every cell computed by the same two workers."""
    monkeypatch.setenv("REPRO_TRACE", "full")
    cache = str(tmp_path / "cache")
    argv = ["run", "fig5", "fig6", "--scale", str(SCALE), "--parallelism", "2",
            "--cache-dir", cache, "--out", str(tmp_path / "out"), "-q"]
    assert main(argv) == 0
    records = read_trace(cache)
    compiles = [
        (r["benchmark"], r["scale"], r.get("n_nodes"))
        for r in records
        if r["site"] == "graph.compile"
    ]
    assert len(compiles) == len(set(compiles))
    # Figure 6's node-count variants are distinct graphs, told apart.
    assert {n for _, _, n in compiles} == {None, 4, 16, 64}
    computed = [r for r in records if r["site"] == "cell.compute"]
    assert computed
    assert len({r["pid"] for r in computed}) <= 2
    assert os.getpid() not in {r["pid"] for r in computed}


# ---------------------------------------------------------------------------------
# the pool's lifecycle
# ---------------------------------------------------------------------------------


def test_pool_is_kept_across_maps_and_reaped_when_the_engine_is_dropped():
    before = _children()
    engine = ExperimentEngine(parallelism=2, fast=True)
    first = engine.map(GRID)
    workers = _children() - before
    assert len(workers) == 2
    assert engine.map(GRID) == first
    assert _children() - before == workers
    del engine
    assert not (_children() & workers)


def test_close_is_idempotent_and_a_later_map_forks_a_new_pool():
    before = _children()
    with ExperimentEngine(parallelism=2, fast=True) as engine:
        rows = engine.map(GRID)
        first = _children() - before
    assert not (_children() & first)
    engine.close()
    assert engine.map(GRID) == rows
    second = _children() - before
    assert len(second) == 2 and not (second & first)
    engine.close()
    engine.close()
    assert not (_children() & second)


def test_pool_is_replaced_when_the_graph_cache_moves(tmp_path):
    with ExperimentEngine(parallelism=2, fast=True) as engine:
        before = _children()
        configure_graph_cache(enabled=True, root=str(tmp_path / "a"))
        rows = engine.map(GRID)
        first = _children() - before
        configure_graph_cache(enabled=True, root=str(tmp_path / "b"))
        assert engine.map(GRID) == rows
        assert not (_children() & first)
        assert os.path.isdir(os.path.join(str(tmp_path / "b"), "compiled"))


def test_worker_killed_between_maps_is_replaced():
    serial = ExperimentEngine(parallelism=1, fast=True).map(GRID)
    before = _children()
    with ExperimentEngine(parallelism=2, fast=True) as engine:
        assert engine.map(GRID) == serial
        victim = next(
            p for p in multiprocessing.active_children() if p.pid not in before
        )
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(10)
        assert not victim.is_alive()
        assert engine.map(GRID) == serial


# ---------------------------------------------------------------------------------
# settings
# ---------------------------------------------------------------------------------


def test_non_integer_parallelism_names_the_variable(monkeypatch):
    monkeypatch.setitem(runner._DEFAULTS, "parallelism", None)
    monkeypatch.setenv("REPRO_PARALLELISM", "two")
    with pytest.raises(ValueError, match="REPRO_PARALLELISM='two'"):
        default_parallelism()
