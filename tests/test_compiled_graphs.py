"""The graph-compilation subsystem: lowering, store, mmap reuse, invalidation.

Covers ``TaskGraph`` -> compiled -> arrays round-trip equality, CSR
structural invariants (topological order, in-degree consistency),
cross-process memory-mapped reuse, and stale-cache invalidation under
``REPRO_CODE_VERSION`` changes.

The lowering itself is pinned twice: against the descriptor properties and
:func:`edge_comm_bytes` on every Table I app, and against SHA-256 digests
of every array, recorded from an independent earlier implementation of
:func:`compile_graph`, for the nine apps, the Figure 6 placements and a
hand-built graph of every argument shape.
"""

import hashlib
import json
import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from repro.analysis.experiments import _distributed_benchmark
from repro.analysis.runner import (
    clear_caches,
    compiled_sim_cache,
    configure_graph_cache,
)
from repro.apps import all_benchmark_names, create_benchmark, distributed_benchmark_names
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
from repro.runtime.graph import TaskGraph
from repro.runtime.task import DataHandle, Direction, TaskArgument, TaskDescriptor
from repro.simulator.execution import SimulationConfig, simulate_graph
from repro.simulator.fastpath import SimGraphCache, simulate_compiled
from repro.simulator.machine import shared_memory_node

SCALE = 0.05

BENCHES = ("cholesky", "stream", "fft")


@pytest.fixture(scope="module")
def graphs():
    """A few small benchmark graphs (cheap to build, structurally diverse)."""
    return {name: create_benchmark(name, scale=SCALE).build_graph() for name in BENCHES}


def _hand_built_graph() -> TaskGraph:
    """Seven tasks covering every argument shape the lowering distinguishes.

    By-value arguments (one over a region), zero-size regions, a writer whose
    only write region has size 0 (its argument claims 96 bytes), inout
    arguments, ``mem_bytes`` overrides, node placements, overlapping and
    fractional regions, and task ids that are neither ``0..n-1`` nor sorted.
    """
    a = DataHandle("a", size_bytes=4096.0)
    b = DataHandle("b", size_bytes=1024.0)

    def arg(direction, handle=None, offset=0.0, size=None, size_bytes=0.0):
        region = None if handle is None else handle.region(offset, size)
        return TaskArgument("x", direction, region=region, size_bytes=size_bytes)

    IN, OUT, INOUT, VALUE = Direction.IN, Direction.OUT, Direction.INOUT, Direction.VALUE
    tasks = [
        TaskDescriptor(40, "w", [arg(OUT, a, 0.0, 1000.5), arg(OUT, a, 512.25, 2048.0),
                                 arg(VALUE, size_bytes=8.0)], duration_s=1.5),
        TaskDescriptor(7, "zero", [arg(OUT, b, 100.0, 0.0, size_bytes=96.0),
                                   arg(IN, a, 0.0, 64.0)], duration_s=0.25, node=2),
        TaskDescriptor(3, "io", [arg(INOUT, a, 256.0, 1024.0), arg(IN, b),
                                 arg(IN, a, 4000.0, 0.0)], duration_s=2.0,
                       metadata={"mem_bytes": 12345}),
        TaskDescriptor(11, "val", [TaskArgument("v", VALUE, region=a.region(0.0, 32.0)),
                                   arg(VALUE, size_bytes=16.0),
                                   arg(OUT, size_bytes=24.0)], duration_s=0.5),
        TaskDescriptor(25, "zr", [arg(IN, a, 10.0, 0.0), arg(OUT, b, 0.0, 512.0)], node=0),
        TaskDescriptor(2, "r", [arg(IN, a, 700.0, 3000.0), arg(IN, b, 50.0, 100.0),
                                arg(INOUT, b, 900.0, 124.0)], duration_s=0.125,
                       metadata={"mem_bytes": 0.0}),
        TaskDescriptor(19, "sink", [arg(OUT, b, 0.0, 1024.0)], duration_s=3.0),
    ]
    deps = {7: [40], 3: [40, 7], 11: [40, 3], 25: [7, 11], 2: [40, 7, 3, 11, 25],
            19: [40, 7, 11, 25, 2]}
    graph = TaskGraph("hand-built")
    for t in tasks:
        graph.add_task(t, deps.get(t.task_id, ()))
    return graph


@pytest.fixture(scope="module")
def lowered_graphs():
    """Every Table I app, each Figure 6 placement (``name@nodes``), and the
    hand-built graph: the graphs whose lowering the digests pin."""
    out = {name: create_benchmark(name, scale=SCALE).build_graph()
           for name in all_benchmark_names()}
    for name in distributed_benchmark_names():
        for nodes in (4, 16, 64):
            out[f"{name}@{nodes}"] = _distributed_benchmark(name, nodes, SCALE).build_graph()
    out["hand-built"] = _hand_built_graph()
    return out


#: SHA-256 (first 16 hex digits) of ``dtype.str`` plus the bytes of every
#: ``ARRAY_FIELDS`` member, in that order, of ``compile_graph`` at SCALE.
#: Recorded from the implementation that walked each task's arguments once
#: per property, before the one-pass lowering replaced it.
LOWERING_DIGESTS = {
    "sparselu": (
        "81ce46a010b0c56b", "b470a8c5a163a7fc", "4b5e3ab53615afb1", "4b5e3ab53615afb1",
        "c666eaa8f18a3bf5", "4b5e3ab53615afb1", "e1cd8c9b48d1e249", "7b662c263568df2d",
        "f1d952d80c09dadf", "91445998d713d5b1", "f4f81e91fb32ab7b", "e9ba26abef2e3542",
    ),
    "cholesky": (
        "9ebae6be5fc9bad4", "d83c47f802e54e5a", "c541d502b76b8bff", "c541d502b76b8bff",
        "2a8f49b704474656", "c541d502b76b8bff", "7782fa35dbdb386f", "26a15a7f88dfcfd6",
        "f563003b2759d920", "1b161d3c488e235a", "651010ba01c1316b", "85736bdcfb0b7682",
    ),
    "fft": (
        "b99120f73c93e2c7", "dbc315e7d910ac42", "d3e7c3af584d6541", "bcaad56ae2379f65",
        "bcaad56ae2379f65", "d3e7c3af584d6541", "1758e6bf19699732", "9984237bc6fb3379",
        "86062f2c81371e5e", "36ad9bb328779573", "03ece7251233a788", "5f64c9e58d26281b",
    ),
    "perlin": (
        "e8f06125f469ae30", "efba9bbc87bab04f", "45a9a1528fbca6ab", "45a9a1528fbca6ab",
        "8834d5363d7cd3af", "45a9a1528fbca6ab", "4c405ec43b6d8aec", "3730a0b9135656a1",
        "3ea68d9e7e0ce37a", "51e46e8a918d192d", "dc4217496a2f4af8", "29e70a9f7b455e54",
    ),
    "stream": (
        "d199f355f60ed334", "d22b71c43d3a6102", "9e4996f40c40bfeb", "c6ae162979ac85a7",
        "ad85156e92779735", "9e4996f40c40bfeb", "956ce5b25eb5b1ec", "dd40f996f6b1c27b",
        "785e613fb8c52b95", "3b10687d9a40450f", "39eb2b7165aee096", "fe91cdff838ecd51",
    ),
    "nbody": (
        "fb7a78a97a9dc8e3", "d75359e8ccbc80e9", "88d3455d301e91af", "a553a0b8485486b0",
        "11b19a96f41d784a", "88d3455d301e91af", "dc4439f0a14dc9ab", "3769cea1e14be898",
        "faedce38e5605227", "b060052d70dfc7ce", "cbdda76ced3645c7", "a453e415c9dd5547",
    ),
    "matmul": (
        "2a933b31c16f2aa4", "306254406b7b73c4", "8d7b9930484ffffc", "8d7b9930484ffffc",
        "d0cc9014f1a7333c", "8d7b9930484ffffc", "cb0d3cc416084d79", "c6574f64d42eca5b",
        "cecc54d0a5e230c9", "a2b222f344511136", "e13fe5a9654470f6", "ce0cfa3111466522",
    ),
    "pingpong": (
        "3d3d6daa39d1798d", "b942220b8e9c68b1", "8f2b6cff7c46c55b", "8f2b6cff7c46c55b",
        "8f2b6cff7c46c55b", "8f2b6cff7c46c55b", "d78f32c0023f56ad", "6271d53325215f5e",
        "bdbe6639e425b7ac", "605cd32407747e13", "25aebaf41899d59b", "e4883adc25ff85b7",
    ),
    "linpack": (
        "b676848e08e5acf7", "6f12c6c5ebfe1618", "b028a5015523654a", "ebe66ac8c832108f",
        "5ed64c56cac3dd24", "b10d4e263fd7619e", "5e23451eb45752fa", "3dda02030642fa4f",
        "0f8597090b6b8c25", "9b069365182d0198", "eee8e9f3b873dfc6", "cf97d54ad34639c9",
    ),
    "nbody@4": (
        "83e0bb012c300fef", "c5ef54acd5ab1b2e", "df661089913891c9", "eebe7df3d93af171",
        "027f224b3acb3c93", "df661089913891c9", "2ab6047d47b2210c", "595f20ddefa0e5ff",
        "4e53b97432b8435f", "47cde096a5314919", "494a92af6935b72a", "2d29a9fe29e9c5a5",
    ),
    "nbody@16": (
        "83e0bb012c300fef", "c5ef54acd5ab1b2e", "df661089913891c9", "eebe7df3d93af171",
        "027f224b3acb3c93", "df661089913891c9", "6799a1f116de3a09", "595f20ddefa0e5ff",
        "4e53b97432b8435f", "47cde096a5314919", "494a92af6935b72a", "2d29a9fe29e9c5a5",
    ),
    "nbody@64": (
        "83e0bb012c300fef", "c5ef54acd5ab1b2e", "df661089913891c9", "eebe7df3d93af171",
        "027f224b3acb3c93", "df661089913891c9", "a6629f13bcf25bc8", "595f20ddefa0e5ff",
        "4e53b97432b8435f", "47cde096a5314919", "494a92af6935b72a", "2d29a9fe29e9c5a5",
    ),
    "matmul@4": (
        "2a933b31c16f2aa4", "306254406b7b73c4", "8d7b9930484ffffc", "8d7b9930484ffffc",
        "d0cc9014f1a7333c", "8d7b9930484ffffc", "51bb501c3bc73f92", "c6574f64d42eca5b",
        "cecc54d0a5e230c9", "a2b222f344511136", "e13fe5a9654470f6", "ce0cfa3111466522",
    ),
    "matmul@16": (
        "2a933b31c16f2aa4", "306254406b7b73c4", "8d7b9930484ffffc", "8d7b9930484ffffc",
        "d0cc9014f1a7333c", "8d7b9930484ffffc", "b235d4424c60810a", "c6574f64d42eca5b",
        "cecc54d0a5e230c9", "a2b222f344511136", "e13fe5a9654470f6", "ce0cfa3111466522",
    ),
    "matmul@64": (
        "2a933b31c16f2aa4", "306254406b7b73c4", "8d7b9930484ffffc", "8d7b9930484ffffc",
        "d0cc9014f1a7333c", "8d7b9930484ffffc", "c542cb5b0114d496", "c6574f64d42eca5b",
        "cecc54d0a5e230c9", "a2b222f344511136", "e13fe5a9654470f6", "ce0cfa3111466522",
    ),
    "pingpong@4": (
        "5cbae2a2feaca179", "1cd707bd57f6e5f1", "c2c887687d95e690", "c2c887687d95e690",
        "c2c887687d95e690", "c2c887687d95e690", "e1a20de81b3dca54", "66da8eb5ae9659a2",
        "e1975ab2dcc79d0d", "a851eeb4229fc0bb", "df6a3ba0f27b92e9", "d1ba904252b69599",
    ),
    "pingpong@16": (
        "5cbae2a2feaca179", "1cd707bd57f6e5f1", "c2c887687d95e690", "c2c887687d95e690",
        "c2c887687d95e690", "c2c887687d95e690", "30a870f00812b756", "5e98bdc221a2747e",
        "0c58bcc9208a6343", "cdad800064732ef4", "91d26d54078fbb65", "d1ba904252b69599",
    ),
    "pingpong@64": (
        "5cbae2a2feaca179", "1cd707bd57f6e5f1", "c2c887687d95e690", "c2c887687d95e690",
        "c2c887687d95e690", "c2c887687d95e690", "c647a7321c62998b", "c43b283c34d50b6f",
        "10279b1363e8cb57", "f17ae926b8989ef8", "88eac7c04e9e4a79", "d1ba904252b69599",
    ),
    "linpack@4": (
        "7858ab32190f0ee5", "7e1a386f1b9af43a", "8934251d4c06130d", "c90fe08fff7a5d87",
        "22be24ea2f5b0cda", "714f414cb1860eff", "c787b5ac945e9689", "965c0779d4355289",
        "1927b7b0152218fd", "2ebfb982cdcccf97", "d5a420622319fcfa", "63b23bbec97a205a",
    ),
    "linpack@16": (
        "b676848e08e5acf7", "6f12c6c5ebfe1618", "b028a5015523654a", "ebe66ac8c832108f",
        "5ed64c56cac3dd24", "b10d4e263fd7619e", "5e23451eb45752fa", "3dda02030642fa4f",
        "0f8597090b6b8c25", "9b069365182d0198", "eee8e9f3b873dfc6", "cf97d54ad34639c9",
    ),
    "linpack@64": (
        "27cc89e5aabee051", "4f05228fd394e0a6", "ca0c38efcbd524c8", "5462a187ff95386f",
        "aa5d6d2ee36c2e50", "4b1f6414f001bd11", "91613115544957fe", "89c73679a47cc772",
        "5706cc2233899c45", "91bc465b83dfdb20", "e2dfa56076934031", "a8020f282fafc53d",
    ),
    "hand-built": (
        "ade581c764b1ff9e", "6bb8b66f5cca6856", "b1605516cc962877", "973b6148200c2377",
        "4a34b9a16bac3549", "07817b4a2a135c79", "f6d5bb776f70ae3e", "f143754a10d9e89f",
        "b49084cbf3eb14de", "c20a8a0f7df880a6", "dd52f17572761986", "92e2ef4c66670b12",
    ),
}


def _digests(compiled: CompiledGraph):
    return tuple(
        hashlib.sha256(arr.dtype.str.encode() + arr.tobytes()).hexdigest()[:16]
        for arr in (getattr(compiled, f) for f in ARRAY_FIELDS)
    )


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
    def test_lowering_matches_recorded_digests(self, lowered_graphs):
        assert set(lowered_graphs) == set(LOWERING_DIGESTS)
        changed = {}
        for name, graph in lowered_graphs.items():
            compiled = compile_graph(graph)
            compiled.validate()
            fields = [f for f, got, want in zip(ARRAY_FIELDS, _digests(compiled),
                                                LOWERING_DIGESTS[name]) if got != want]
            if fields:
                changed[name] = fields
        assert not changed, f"lowered arrays changed: {changed}"

    def test_per_task_arrays_match_descriptors(self, lowered_graphs):
        for name, graph in lowered_graphs.items():
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

    def test_edge_bytes_match_reference_helper(self, lowered_graphs):
        for name, graph in lowered_graphs.items():
            compiled = compile_graph(graph)
            tasks = graph.tasks()
            for i in range(compiled.n):
                lo, hi = compiled.succ_indptr[i], compiled.succ_indptr[i + 1]
                for k in range(lo, hi):
                    j = int(compiled.succ_indices[k])
                    assert compiled.edge_bytes[k] == edge_comm_bytes(tasks[i], tasks[j]), name

    def test_a_zero_size_writer_sends_nothing_to_readers(self):
        graph = _hand_built_graph()
        compiled = compile_graph(graph)
        i = graph.task_ids().index(7)
        row = compiled.succ_indices[compiled.succ_indptr[i] : compiled.succ_indptr[i + 1]]
        payload = dict(zip(
            (graph.task_ids()[j] for j in row),
            compiled.edge_bytes[compiled.succ_indptr[i] : compiled.succ_indptr[i + 1]],
        ))
        # Readers of anything get the empty overlap; task 19 reads nothing,
        # so it gets task 7's output bytes.
        assert payload == {2: 0.0, 3: 0.0, 19: 96.0, 25: 0.0}
        assert compiled.output_bytes[i] == 96.0

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

    def test_validate_checks_task_ids_are_unique_in_any_order(self, graphs):
        compiled = compile_graph(graphs["stream"])

        def with_ids(ids):
            return CompiledGraph(**{
                f: (np.asarray(ids, dtype=np.int64) if f == "task_ids" else getattr(compiled, f))
                for f in ARRAY_FIELDS
            })

        shuffled = np.random.default_rng(0).permutation(compiled.n) * 3 + 1
        with_ids(shuffled).validate()
        sorted_dup = np.sort(shuffled)
        sorted_dup[7] = sorted_dup[6]
        shuffled_dup = shuffled.copy()
        shuffled_dup[0] = shuffled_dup[-1]
        for ids in (sorted_dup, shuffled_dup):
            with pytest.raises(ValueError, match="task ids are not unique"):
                with_ids(ids).validate()


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

    def test_loaded_members_are_aligned(self, graphs, tmp_path):
        """Every memory-mapped member starts on a 64-byte boundary, so the C
        kernel reads the store's i64/double arrays aligned."""
        store = CompiledGraphStore(str(tmp_path))
        for name, graph in graphs.items():
            store.save(name, SCALE, compile_graph(graph))
            loaded = store.load(name, SCALE)
            for f in ARRAY_FIELDS:
                arr = getattr(loaded, f)
                if arr.size:
                    assert isinstance(arr, np.memmap), (name, f)
                    assert arr.ctypes.data % 64 == 0, (name, f)

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
