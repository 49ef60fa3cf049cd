"""The graph-compilation subsystem: lowering, store, mmap reuse, invalidation.

Covers the ISSUE-3 checklist: ``TaskGraph`` -> compiled -> arrays round-trip
equality, CSR structural invariants (topological order, in-degree
consistency), cross-process memory-mapped reuse, and stale-cache invalidation
under ``REPRO_CODE_VERSION`` changes.
"""

import json
import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from repro.analysis.runner import (
    clear_caches,
    compiled_sim_cache,
    configure_graph_cache,
)
from repro.apps import create_benchmark
from repro.runtime.compiled import (
    ARRAY_FIELDS,
    CompiledGraph,
    CompiledGraphStore,
    compile_graph,
    compiled_key,
    edge_comm_bytes,
    load_npz_arrays,
    write_npz_deterministic,
)
from repro.simulator.execution import SimulationConfig, simulate_graph
from repro.simulator.fastpath import SimGraphCache, simulate_compiled
from repro.simulator.machine import shared_memory_node

SCALE = 0.05

BENCHES = ("cholesky", "stream", "fft")


@pytest.fixture(scope="module")
def graphs():
    """A few small benchmark graphs (cheap to build, structurally diverse)."""
    return {name: create_benchmark(name, scale=SCALE).build_graph() for name in BENCHES}


@pytest.fixture(autouse=True)
def _isolated_graph_cache():
    """Never let these tests touch a real cache root."""
    configure_graph_cache(enabled=None, root=None)
    clear_caches()
    yield
    configure_graph_cache(enabled=None, root=None)
    clear_caches()


# ---------------------------------------------------------------------------------
# lowering: TaskGraph -> CompiledGraph
# ---------------------------------------------------------------------------------


class TestCompileGraph:
    def test_per_task_arrays_match_descriptors(self, graphs):
        for name, graph in graphs.items():
            compiled = compile_graph(graph)
            tasks = graph.tasks()
            assert compiled.n == len(tasks), name
            for i, t in enumerate(tasks):
                assert compiled.task_ids[i] == t.task_id
                assert compiled.durations[i] == t.duration_s
                assert compiled.arg_bytes[i] == t.argument_bytes
                assert compiled.input_bytes[i] == t.input_bytes
                assert compiled.output_bytes[i] == t.output_bytes
                expected_mem = float(t.metadata.get("mem_bytes", t.argument_bytes))
                assert compiled.mem_bytes[i] == expected_mem
                assert compiled.node_attr[i] == (-1 if t.node is None else t.node)

    def test_csr_matches_graph_adjacency(self, graphs):
        for name, graph in graphs.items():
            compiled = compile_graph(graph)
            index = {tid: i for i, tid in enumerate(graph.task_ids())}
            for i, tid in enumerate(graph.task_ids()):
                row = compiled.succ_indices[
                    compiled.succ_indptr[i] : compiled.succ_indptr[i + 1]
                ].tolist()
                assert row == [index[s] for s in sorted(graph.successors(tid))], name
                prow = compiled.pred_indices[
                    compiled.pred_indptr[i] : compiled.pred_indptr[i + 1]
                ].tolist()
                assert prow == [index[p] for p in sorted(graph.predecessors(tid))], name

    def test_csr_topological_and_in_degree_invariants(self, graphs):
        for name, graph in graphs.items():
            compiled = compile_graph(graph)
            compiled.validate()
            # Benchmarks submit tasks after their dependencies, so every edge
            # points forward in submission order: the CSR *is* a topological
            # order of the DAG.
            for i in range(compiled.n):
                row = compiled.succ_indices[
                    compiled.succ_indptr[i] : compiled.succ_indptr[i + 1]
                ]
                assert np.all(row > i), name
            in_deg = compiled.in_degrees()
            assert in_deg.tolist() == [
                graph.in_degree(tid) for tid in graph.task_ids()
            ], name
            # Edge conservation: every successor edge appears exactly once as
            # a predecessor edge.
            assert compiled.succ_indices.shape == compiled.pred_indices.shape, name
            counts = np.zeros(compiled.n, dtype=np.int64)
            np.add.at(counts, compiled.succ_indices, 1)
            assert counts.tolist() == in_deg.tolist(), name

    def test_edge_bytes_match_reference_helper(self, graphs):
        graph = graphs["cholesky"]
        compiled = compile_graph(graph)
        tasks = graph.tasks()
        for i in range(compiled.n):
            lo, hi = compiled.succ_indptr[i], compiled.succ_indptr[i + 1]
            for k in range(lo, hi):
                j = compiled.succ_indices[k]
                assert compiled.edge_bytes[k] == edge_comm_bytes(tasks[i], tasks[int(j)])

    def test_validate_rejects_corrupt_structures(self, graphs):
        compiled = compile_graph(graphs["stream"])
        bad = CompiledGraph(
            **{
                f: (np.array([-1, 0]) if f == "succ_indptr" else getattr(compiled, f))
                for f in ARRAY_FIELDS
            }
        )
        with pytest.raises(ValueError):
            bad.validate()


# ---------------------------------------------------------------------------------
# store round-trip and mmap loading
# ---------------------------------------------------------------------------------


def _assert_compiled_equal(a: CompiledGraph, b: CompiledGraph) -> None:
    for f in ARRAY_FIELDS:
        assert np.array_equal(np.asarray(getattr(a, f)), np.asarray(getattr(b, f))), f


class TestStoreRoundTrip:
    def test_save_load_bit_exact(self, graphs, tmp_path):
        store = CompiledGraphStore(str(tmp_path))
        for name, graph in graphs.items():
            compiled = compile_graph(graph)
            key = store.save(name, SCALE, compiled)
            assert store.contains(name, SCALE)
            loaded = store.load(name, SCALE)
            assert loaded is not None
            _assert_compiled_equal(compiled, loaded)
            assert os.path.exists(store.path_for(key))
            assert os.path.exists(store.meta_path_for(key))

    def test_loaded_arrays_are_memory_mapped(self, graphs, tmp_path):
        store = CompiledGraphStore(str(tmp_path))
        store.save("cholesky", SCALE, compile_graph(graphs["cholesky"]))
        loaded = store.load("cholesky", SCALE)
        mapped = [f for f in ARRAY_FIELDS if isinstance(getattr(loaded, f), np.memmap)]
        # Every non-empty member should be an actual memmap (not a copy).
        nonempty = [f for f in ARRAY_FIELDS if getattr(loaded, f).size]
        assert set(nonempty) <= set(mapped)

    def test_mmap_disabled_still_loads(self, graphs, tmp_path):
        store = CompiledGraphStore(str(tmp_path))
        compiled = compile_graph(graphs["stream"])
        store.save("stream", SCALE, compiled)
        loaded = store.load("stream", SCALE, mmap=False)
        _assert_compiled_equal(compiled, loaded)

    def test_simulation_identical_from_mmap(self, graphs, tmp_path):
        graph = graphs["fft"]
        store = CompiledGraphStore(str(tmp_path))
        store.save("fft", SCALE, compile_graph(graph))
        cache = SimGraphCache.from_compiled(store.load("fft", SCALE))
        config = SimulationConfig(
            replicate_all=True, crash_probability=0.03, sdc_probability=0.01, seed=4
        )
        fast = simulate_compiled(cache, shared_memory_node(8), config)
        ref = simulate_graph(graph, shared_memory_node(8), config)
        assert fast.makespan_s == ref.makespan_s
        assert fast.total_overhead_s == ref.total_overhead_s
        assert fast.total_recovery_s == ref.total_recovery_s
        assert fast.crashes_injected == ref.crashes_injected
        assert fast.sdcs_injected == ref.sdcs_injected

    def test_corrupt_npz_is_quarantined(self, graphs, tmp_path):
        store = CompiledGraphStore(str(tmp_path))
        key = store.save("stream", SCALE, compile_graph(graphs["stream"]))
        with open(store.path_for(key), "wb") as fh:
            fh.write(b"not a zip archive")
        assert store.load("stream", SCALE) is None
        assert not os.path.exists(store.path_for(key))
        assert not os.path.exists(store.meta_path_for(key))

    def test_two_threads_saving_one_graph_both_succeed(
        self, graphs, tmp_path, monkeypatch
    ):
        """Concurrent saves of one key must not share a temp file.

        A barrier inside the array write holds both threads between opening
        their temp file and renaming it, the interleaving that made one
        ``os.replace`` fail when temp names were per-process only.
        """
        store = CompiledGraphStore(str(tmp_path))
        compiled = compile_graph(graphs["cholesky"])
        barrier = threading.Barrier(2, timeout=10.0)

        def write_in_step(fh, arrays):
            barrier.wait()
            write_npz_deterministic(fh, arrays)

        monkeypatch.setattr(
            "repro.runtime.compiled.write_npz_deterministic", write_in_step
        )
        results, errors = [], []

        def save():
            try:
                results.append(store.save("cholesky", SCALE, compiled))
            except Exception as exc:  # noqa: BLE001 - reported by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=save) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert errors == []
        assert results == [compiled_key("cholesky", SCALE)] * 2
        _assert_compiled_equal(compiled, store.load("cholesky", SCALE))
        shard = os.path.dirname(store.path_for(results[0]))
        assert not [n for n in os.listdir(shard) if ".tmp." in n]

    def test_load_npz_arrays_fallback_matches_mmap(self, graphs, tmp_path):
        store = CompiledGraphStore(str(tmp_path))
        key = store.save("stream", SCALE, compile_graph(graphs["stream"]))
        path = store.path_for(key)
        mapped = load_npz_arrays(path, mmap=True)
        copied = load_npz_arrays(path, mmap=False)
        assert set(mapped) == set(copied) == set(ARRAY_FIELDS)
        for f in ARRAY_FIELDS:
            assert np.array_equal(np.asarray(mapped[f]), copied[f])


# ---------------------------------------------------------------------------------
# cross-process reuse
# ---------------------------------------------------------------------------------


_CHILD_SCRIPT = textwrap.dedent(
    """
    import json, sys
    import numpy as np
    from repro.runtime.compiled import CompiledGraphStore, ARRAY_FIELDS
    from repro.simulator.fastpath import SimGraphCache, simulate_compiled
    from repro.simulator.execution import SimulationConfig
    from repro.simulator.machine import shared_memory_node

    root, name, scale = sys.argv[1], sys.argv[2], float(sys.argv[3])
    store = CompiledGraphStore(root)
    compiled = store.load(name, scale)
    assert compiled is not None, "child must hit the shared store"
    assert any(isinstance(getattr(compiled, f), np.memmap) for f in ARRAY_FIELDS)
    result = simulate_compiled(
        SimGraphCache.from_compiled(compiled),
        shared_memory_node(8),
        SimulationConfig(replicate_all=True, crash_probability=0.03, seed=4),
    )
    print(json.dumps({
        "makespan": result.makespan_s,
        "crashes": result.crashes_injected,
        "n": compiled.n,
    }))
    """
)


class TestCrossProcessReuse:
    def test_child_process_mmap_loads_and_agrees(self, graphs, tmp_path):
        graph = graphs["cholesky"]
        store = CompiledGraphStore(str(tmp_path))
        store.save("cholesky", SCALE, compile_graph(graph))

        parent = simulate_compiled(
            SimGraphCache.from_compiled(store.load("cholesky", SCALE)),
            shared_memory_node(8),
            SimulationConfig(replicate_all=True, crash_probability=0.03, seed=4),
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", _CHILD_SCRIPT, str(tmp_path), "cholesky", str(SCALE)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        child = json.loads(out.stdout)
        assert child["n"] == len(graph)
        assert child["makespan"] == parent.makespan_s
        assert child["crashes"] == parent.crashes_injected


# ---------------------------------------------------------------------------------
# invalidation
# ---------------------------------------------------------------------------------


class TestInvalidation:
    def test_key_depends_on_version_and_identity(self):
        base = compiled_key("cholesky", 0.1, None, version="1.0")
        assert compiled_key("cholesky", 0.1, None, version="1.0") == base
        assert compiled_key("cholesky", 0.1, None, version="2.0") != base
        assert compiled_key("cholesky", 0.2, None, version="1.0") != base
        assert compiled_key("stream", 0.1, None, version="1.0") != base
        assert compiled_key("cholesky", 0.1, 4, version="1.0") != base

    def test_code_version_bump_invalidates_and_gc_reclaims(
        self, graphs, tmp_path, monkeypatch
    ):
        store = CompiledGraphStore(str(tmp_path))
        monkeypatch.setenv("REPRO_CODE_VERSION", "test-old")
        store.save("stream", SCALE, compile_graph(graphs["stream"]))
        assert store.contains("stream", SCALE)

        monkeypatch.setenv("REPRO_CODE_VERSION", "test-new")
        # The old entry is unreachable under the new version...
        assert store.load("stream", SCALE) is None
        # ...and gc removes exactly the stale generation.
        removed = store.gc()
        assert removed["stale"] == 1
        assert store.ls() == []

    def test_gc_keeps_current_version_and_drops_orphans(
        self, graphs, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CODE_VERSION", "test-keep")
        store = CompiledGraphStore(str(tmp_path))
        key = store.save("stream", SCALE, compile_graph(graphs["stream"]))
        # Fabricate an orphan .npz (no sidecar) and a stray temp file.
        orphan = os.path.join(os.path.dirname(store.path_for(key)), "ff" * 32 + ".npz")
        with open(orphan, "wb") as fh:
            fh.write(b"junk")
        with open(store.path_for(key) + ".tmp.999", "wb") as fh:
            fh.write(b"junk")
        removed = store.gc()
        assert removed == {"stale": 0, "orphan": 1, "tmp": 1, "aged": 0, "skipped": 0}
        assert store.contains("stream", SCALE)

    def test_gc_counts_unremovable_paths_as_skipped(
        self, graphs, tmp_path, monkeypatch
    ):
        store = CompiledGraphStore(str(tmp_path))
        monkeypatch.setenv("REPRO_CODE_VERSION", "test-old")
        key = store.save("stream", SCALE, compile_graph(graphs["stream"]))
        # Replace the arrays file with a non-empty directory: os.remove then
        # fails deterministically (even as root), like any unremovable entry.
        npz = store.path_for(key)
        os.remove(npz)
        os.makedirs(os.path.join(npz, "blocker"))

        monkeypatch.setenv("REPRO_CODE_VERSION", "test-new")
        removed = store.gc()
        assert removed["skipped"] == 1
        # The half-removed entry is not reported as cleanly collected.
        assert removed["stale"] == 0

    def test_stats_counts_unreadable_and_missing(self, graphs, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_VERSION", "test-keep")
        store = CompiledGraphStore(str(tmp_path))
        key = store.save("stream", SCALE, compile_graph(graphs["stream"]))
        clean = store.stats()
        assert clean["entries"] == 1
        assert clean["unreadable"] == 0 and clean["missing_arrays"] == 0

        # A corrupt sidecar and a sidecar whose arrays vanished both surface.
        bad_meta = store.meta_path_for("ee" * 32)
        os.makedirs(os.path.dirname(bad_meta), exist_ok=True)
        with open(bad_meta, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        os.remove(store.path_for(key))
        damaged = store.stats()
        assert damaged["unreadable"] == 1
        assert damaged["missing_arrays"] == 1


# ---------------------------------------------------------------------------------
# the runner-level cache plumbing
# ---------------------------------------------------------------------------------


class TestCompiledSimCache:
    def test_disabled_cache_stays_in_memory(self, tmp_path):
        configure_graph_cache(enabled=False, root=str(tmp_path))
        cache = compiled_sim_cache("stream", SCALE)
        assert cache.n > 0
        assert not os.path.isdir(os.path.join(str(tmp_path), "compiled"))
        # Memoised: the same object comes back.
        assert compiled_sim_cache("stream", SCALE) is cache

    def test_enabled_cache_persists_and_reloads_mmap(self, tmp_path):
        configure_graph_cache(enabled=True, root=str(tmp_path))
        first = compiled_sim_cache("stream", SCALE)
        assert os.path.isdir(os.path.join(str(tmp_path), "compiled"))
        # A fresh process-level memo loads from disk (memory-mapped).
        clear_caches()
        configure_graph_cache(enabled=True, root=str(tmp_path))
        second = compiled_sim_cache("stream", SCALE)
        assert second is not first
        assert isinstance(second.compiled.durations, np.memmap)
        _assert_compiled_equal(first.compiled, second.compiled)
