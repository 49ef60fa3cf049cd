"""The engine's worker pool, its one-build-per-graph rule and its groups.

An :class:`ExperimentEngine` forks one process pool at its first parallel
map and keeps it for every later map, and each compiled graph is built once
per run: a parallel map builds the graphs its cells declare before it sends
them, and threads of one process that miss the same graph wait for one
build.  Consecutive cells on one graph run as one group, serially or as one
pool task, and share values only within it.  These tests pin the
declarations against what the cells read, the build counts, the groups and
what they share, and the pool's lifecycle (reuse, close, drop, a killed
worker).
"""

from __future__ import annotations

import multiprocessing
import os
import secrets
import signal
import sys
import threading
import time

import pytest

from repro.analysis import runner
from repro.analysis.experiments import SWEEP_POLICIES, sweep_policies
from repro.analysis.runner import (
    ExperimentEngine,
    _cell_groups,
    _largest_first,
    clear_caches,
    compiled_sim_cache,
    configure_graph_cache,
    default_parallelism,
    make_spec,
    run_cell,
    spec_graphs,
)
from repro.analysis.store import ResultStore
from repro.cli import main
from repro.obs.report import read_trace
from repro.runtime.compiled import CompiledGraphStore
from repro.serve.leases import LeaseHeartbeat, LeaseStore
from repro.serve.workers import LeaseDrainEngine, SweepWorker
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
# groups of cells on one graph, and the values they share
# ---------------------------------------------------------------------------------

#: The graphs a probe cell may declare, by letter.
PROBE_GRAPHS = {
    "a": ("cholesky", SCALE, None),
    "b": ("stream", SCALE, None),
    "c": ("fft", SCALE, None),
}


@pytest.fixture
def probe(monkeypatch):
    """A ``group_probe`` cell kind, registered for one test; a spec maker.

    ``probe(graphs, i)`` is the ``i``-th probe cell, declaring the graphs its
    letters name.  The cell returns a token it gets from
    :func:`runner.group_shared`, so cells with equal tokens ran in one group;
    ``probe.computed`` counts the tokens computed in this process.
    """
    computed = []

    def cell(spec):
        def compute():
            computed.append(spec)
            return secrets.token_hex(8)

        return runner.group_shared("token", compute)

    def graphs(spec):
        return [PROBE_GRAPHS[letter] for letter in spec.param("graphs")]

    # Registered before any pool forks, so pool workers know the kind too.
    monkeypatch.setitem(runner._CELL_KINDS, "group_probe", cell)
    monkeypatch.setitem(runner._CELL_GRAPHS, "group_probe", graphs)

    def make(graphs, i):
        return make_spec("group_probe", "probe", SCALE, seed=i, graphs=tuple(graphs))

    make.computed = computed
    return make


def _partition(tokens):
    """Cell indices grouped by the token they returned, in order."""
    groups = {}
    for i, token in enumerate(tokens):
        groups.setdefault(token, []).append(i)
    return list(groups.values())


@pytest.mark.parametrize("n_todo, workers", [(7, 1), (7, 2), (7, 3), (2, 2), (1, 2)])
def test_no_group_exceeds_an_even_share_of_the_cells_to_compute(probe, n_todo, workers):
    specs = [probe("a", i) for i in range(n_todo)]
    todo = [(i, None) for i in range(n_todo)]
    groups = _cell_groups(specs, todo, workers)
    cap = -(-n_todo // workers)
    assert [item for group in groups for item in group] == todo
    assert all(len(group) == cap for group in groups[:-1])
    assert 0 < len(groups[-1]) <= cap


def test_the_cap_counts_only_the_cells_to_compute(probe, tmp_path):
    specs = [probe("a", i) for i in range(4)]
    store = ResultStore(str(tmp_path))
    ExperimentEngine(parallelism=1, store=store).map(specs[:2])
    with ExperimentEngine(parallelism=2, store=store) as engine:
        tokens = engine.map(specs)
    assert engine.last_stats == (2, 2)
    # Two cells to compute on two workers: one cell per group.
    assert tokens[2] != tokens[3]


def test_serial_and_pooled_maps_form_the_same_groups(probe):
    """A group is a run of consecutive cells that declare the same graphs:
    it never mixes graphs, and a cell that declares none runs alone."""
    letters = ["a", "a", "b", "b", "", "", "c", "c", "ab", "ab", "a"]
    specs = [probe(g, i) for i, g in enumerate(letters)]
    serial = _partition(ExperimentEngine(parallelism=1).map(specs))
    with ExperimentEngine(parallelism=2) as engine:
        pooled = _partition(engine.map(specs))
    assert serial == pooled == [[0, 1], [2, 3], [4], [5], [6, 7], [8, 9], [10]]


def test_a_shared_value_is_recomputed_in_the_next_group(probe):
    specs = [probe(g, i) for i, g in enumerate(["a", "a", "b", "a"])]
    engine = ExperimentEngine(parallelism=1)
    first = engine.map(specs)
    assert len(probe.computed) == 3
    assert first[0] == first[1] != first[3]
    # Nothing outlives its group: a second map computes every value again.
    second = engine.map(specs)
    assert len(probe.computed) == 6
    assert not set(first) & set(second)


def test_a_cell_outside_any_group_computes_every_time(probe):
    spec = probe("a", 0)
    assert run_cell(spec) != run_cell(spec)
    assert len(probe.computed) == 2


def test_a_lease_drain_map_is_one_group(probe, tmp_path):
    leases = LeaseStore(str(tmp_path), owner="w", ttl_s=30.0)
    engine = LeaseDrainEngine(
        store=ResultStore(str(tmp_path)), leases=leases, heartbeat=LeaseHeartbeat(leases)
    )
    tokens = engine.map([probe("a", i) for i in range(3)])
    assert len(set(tokens)) == 1
    assert len(probe.computed) == 1
    # Nothing outlives a map: the next one computes its value again.
    again = engine.map([probe("a", i) for i in range(3, 6)])
    assert len(set(again)) == 1
    assert again[0] != tokens[0]
    assert len(probe.computed) == 2


def test_a_drained_cold_job_decides_and_replays_each_distinct_value_once(
    tmp_path, monkeypatch
):
    """The service's cold job, drained by one worker: App_FIT is decided once
    per multiplier and the baseline replayed once per fault rate, as in an
    engine group.  That is 2 decisions (4 without sharing) and 6 kernel calls
    over 1 + 4 + 2 * (1 + 4) = 15 lanes (8 calls over 20 lanes without)."""
    import repro.analysis.experiments as experiments
    from repro.simulator.backend import (
        BackendUnavailable,
        CExtBackend,
        reset_backends,
        resolve_backend,
    )

    monkeypatch.setenv("REPRO_SIM_BACKEND", "cext")
    reset_backends()
    try:
        resolve_backend()
    except BackendUnavailable as exc:
        pytest.skip(f"cext backend unavailable: {exc}")
    decided, lanes = [], []
    real_decide, real_run = experiments.decide_for_compiled, CExtBackend.run_batch

    def decide(*args, **kwargs):
        decided.append(args[0])
        return real_decide(*args, **kwargs)

    def run_batch(self, n_lanes, *args):
        lanes.append(n_lanes)
        return real_run(self, n_lanes, *args)

    monkeypatch.setattr(experiments, "decide_for_compiled", decide)
    monkeypatch.setattr(CExtBackend, "run_batch", run_batch)
    worker = SweepWorker(str(tmp_path), ttl_s=30.0)
    job = worker.jobs.submit(
        {
            "workloads": ["layered:depth=60,width=50,seed=0"],
            "multipliers": [10.0, 5.0],
            "fault_rates": [0.0, 0.01],
            "n_seeds": 4,
        }
    )
    assert worker.run_once() == 1
    assert worker.jobs.status(job["id"])["state"] == "done"
    assert len(decided) == 2
    assert len(lanes) == 6
    assert sum(lanes) == 15


def test_the_pool_takes_the_largest_groups_first(probe, tmp_path):
    """A group's size is its cell count times the bytes of its stored graphs.
    Equal sizes keep spec order, and so does every group without the store."""
    letters = ["b", "a", "a", "c", "", "b", "b", "", "c"]
    specs = [probe(g, i) for i, g in enumerate(letters)]
    groups = _cell_groups(specs, [(i, None) for i in range(len(specs))], 1)
    assert [[i for i, _ in group] for group in groups] == [
        [0], [1, 2], [3], [4], [5, 6], [7], [8]
    ]
    engine = ExperimentEngine(parallelism=2)
    assert _largest_first(specs, groups) == groups

    configure_graph_cache(enabled=True, root=str(tmp_path))
    store = CompiledGraphStore(str(tmp_path))
    nbytes = {}
    for letter, key in PROBE_GRAPHS.items():
        compiled_sim_cache(*key)
        nbytes[letter] = os.path.getsize(store.path_for(store.key(*key)))
    ordered = _largest_first(specs, groups)
    order = [group[0][0] for group in ordered]
    sizes = [len(group) * sum(nbytes[c] for c in letters[group[0][0]]) for group in ordered]
    assert sorted(ordered) == sorted(groups)
    assert sizes == sorted(sizes, reverse=True)
    assert order.index(3) < order.index(8) and order[-2:] == [4, 7]

    serial = _partition(ExperimentEngine(parallelism=1).map(specs))
    with engine:
        assert _partition(engine.map(specs)) == serial


def test_a_serial_policy_sweep_decides_app_fit_once(monkeypatch):
    """``top_fit`` and ``random`` take App_FIT's budget from its cell."""
    import repro.analysis.experiments as experiments

    decided = []
    real = experiments.decide_for_compiled

    def counting(*args, **kwargs):
        decided.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "decide_for_compiled", counting)
    sweep = sweep_policies(["cholesky"], policies=SWEEP_POLICIES, scale=SCALE, parallelism=1)
    assert len(sweep.rows) == len(SWEEP_POLICIES)
    assert len(decided) == 1


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
