"""Direct spec→CompiledGraph generation: equality, streaming, and store safety.

Covers the ISSUE-10 tentpole and its regression satellites:

* direct-vs-lowered **byte** equality for every synthetic family (both
  scales) and for a trace import with duplicate and unordered deps — the
  guarantee that makes the direct path a drop-in cache citizen;
* the erdos ``sampling=skip`` O(edges) generator (a spec parameter, so the
  two draw orders can never share a cache entry);
* the python backend's chunked replay (``REPRO_SIM_CHUNK_TASKS``) against
  the reference loop at chunk sizes 1, 7 and n, records included, bit for
  bit;
* direct generation wired through ``compiled_sim_cache`` (store and
  in-memory branches);
* quarantine-on-corruption for torn zips whose damage lands inside the
  central directory (the shape that used to escape as ``AttributeError``).
"""

import json
import os
import zipfile
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.runner import (
    benchmark_graph,
    clear_caches,
    compiled_sim_cache,
    configure_graph_cache,
)
from repro.runtime.compiled import ARRAY_FIELDS, CompiledGraphStore, compile_graph
from repro.simulator.execution import SimulationConfig, simulate_graph
from repro.simulator.fastpath import (
    SimGraphCache,
    sim_chunk_tasks,
    simulate_compiled,
    simulate_compiled_batch,
)
from repro.simulator.machine import MachineSpec
from repro.workloads import (
    WorkloadBenchmark,
    generate_compiled,
    generate_compiled_to_store,
    parse_workload,
)
from repro.workloads.generators import erdos_pred_indices

#: One small spec per synthetic family (plus both erdos draw orders).
EQUALITY_SPECS = (
    "layered:depth=5,width=4,fanin=3,seed=11,block_cv=0.4",
    "erdos:tasks=40,p=0.12,seed=11,block_cv=0.4",
    "erdos:tasks=40,p=0.12,seed=11,block_cv=0.4,sampling=skip",
    "forkjoin:stages=3,width=5,seed=11,block_cv=0.4",
    "pipeline:stages=4,items=6,seed=11,block_cv=0.4",
    "wavefront:rows=5,cols=6,seed=11,block_cv=0.4",
    "mapreduce:maps=6,reduces=3,rounds=3,seed=11,block_cv=0.4",
)


@pytest.fixture(autouse=True)
def _isolated_caches():
    """Direct-path tests must not touch a real cache root or leak memos."""
    configure_graph_cache(enabled=None, root=None)
    clear_caches()
    yield
    configure_graph_cache(enabled=None, root=None)
    clear_caches()


def _assert_byte_equal(direct, lowered):
    """Every compiled array identical down to the bit pattern."""
    for field in ARRAY_FIELDS:
        a = np.asarray(getattr(direct, field))
        b = np.asarray(getattr(lowered, field))
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert np.array_equal(a.view(np.uint8), b.view(np.uint8)), field


class TestDirectEqualsLowered:
    @pytest.mark.parametrize("text", EQUALITY_SPECS)
    @pytest.mark.parametrize("scale", (1.0, 0.5))
    def test_families_byte_equal(self, text, scale):
        spec = parse_workload(text)
        direct = generate_compiled(spec, scale)
        lowered = compile_graph(WorkloadBenchmark(spec, scale=scale).build_graph())
        _assert_byte_equal(direct, lowered)

    def test_trace_with_duplicate_and_unordered_deps(self, tmp_path):
        # Duplicate deps accumulate the payload per occurrence; unordered
        # deps exercise the byte-sum ordering (file order, not sorted).
        doc = {
            "name": "tangled",
            "tasks": [
                {"id": 7, "type": "a", "duration_s": 0.01, "output_bytes": 1000.1, "deps": []},
                {"id": 3, "type": "b", "duration_s": 0.02, "output_bytes": 2048.7, "deps": [7]},
                {"id": 9, "type": "c", "duration_s": 0.03, "output_bytes": 512.0,
                 "deps": [3, 7, 3]},
                {"id": 4, "type": "d", "duration_s": 0.04, "output_bytes": 64.5,
                 "deps": [9, 3]},
            ],
        }
        path = tmp_path / "tangled.json"
        path.write_text(json.dumps(doc))
        spec = parse_workload(f"trace:file={path}")
        direct = generate_compiled(spec, 1.0)
        lowered = compile_graph(WorkloadBenchmark(spec, scale=1.0).build_graph())
        _assert_byte_equal(direct, lowered)

    def test_store_entries_are_interchangeable(self, tmp_path):
        """Direct and lowered writes share the key AND the ``.npz`` bytes."""
        spec = parse_workload(EQUALITY_SPECS[0])
        direct_store = CompiledGraphStore(str(tmp_path / "direct"))
        lowered_store = CompiledGraphStore(str(tmp_path / "lowered"))
        key = generate_compiled_to_store(spec, 1.0, direct_store)
        lowered = compile_graph(WorkloadBenchmark(spec, scale=1.0).build_graph())
        key2 = lowered_store.save(spec.canonical, 1.0, lowered, None)
        assert key == key2
        with open(direct_store.path_for(key), "rb") as fh:
            direct_bytes = fh.read()
        with open(lowered_store.path_for(key2), "rb") as fh:
            lowered_bytes = fh.read()
        assert direct_bytes == lowered_bytes


class TestErdosSkipSampling:
    def test_dense_is_the_legacy_draw_order(self):
        # The dense branch must reproduce gen.random(j) < p exactly.
        gen_a = np.random.default_rng(5)
        gen_b = np.random.default_rng(5)
        for j in range(1, 30):
            draws = gen_b.random(j)
            expected = [i for i in range(j) if draws[i] < 0.2]
            assert erdos_pred_indices(gen_a, j, 0.2, "dense") == expected

    def test_skip_sampling_edge_cases(self):
        gen = np.random.default_rng(0)
        assert erdos_pred_indices(gen, 0, 0.5, "skip") == []
        assert erdos_pred_indices(gen, 10, 0.0, "skip") == []
        assert erdos_pred_indices(gen, 10, 1.0, "skip") == list(range(10))
        # No draws are consumed for the closed-form cases above.
        assert gen.random() == np.random.default_rng(0).random()
        # A subnormal p makes the first gap infinite: no edges, no overflow.
        assert erdos_pred_indices(np.random.default_rng(0), 10, 5e-324, "skip") == []

    def test_skip_preds_sorted_unique_and_deterministic(self):
        preds = erdos_pred_indices(np.random.default_rng(9), 500, 0.05, "skip")
        assert preds == sorted(set(preds))
        assert all(0 <= i < 500 for i in preds)
        again = erdos_pred_indices(np.random.default_rng(9), 500, 0.05, "skip")
        assert preds == again

    def test_skip_density_matches_p(self):
        # ~Binomial(2000, 0.05): mean 100, sd ~9.7 — 5 sd is a safe band.
        preds = erdos_pred_indices(np.random.default_rng(2), 2000, 0.05, "skip")
        assert 50 <= len(preds) <= 150

    def test_sampling_rekeys_the_canonical_name(self):
        dense = parse_workload("erdos:tasks=40,p=0.12,seed=11")
        skip = parse_workload("erdos:tasks=40,p=0.12,seed=11,sampling=skip")
        assert dense.canonical != skip.canonical
        assert "sampling=dense" in dense.canonical
        with pytest.raises(ValueError, match="must be one of"):
            parse_workload("erdos:sampling=sparse")


class TestStreamingReplay:
    """The python backend's one loop equals the reference at every chunk size."""

    SPEC = "layered:depth=25,width=12,seed=4"
    MACHINES = (
        MachineSpec(n_nodes=1, cores_per_node=6, spare_cores_per_node=1),
        MachineSpec(n_nodes=3, cores_per_node=3, spare_cores_per_node=1),
    )
    CONFIGS = (
        SimulationConfig(),
        SimulationConfig(
            crash_probability=0.08, sdc_probability=0.03, replicate_all=True, seed=13
        ),
        SimulationConfig(
            crash_probability=0.1, seed=7, model_memory_contention=True,
            replicated_ids=frozenset(range(0, 200, 5)),
        ),
    )

    @staticmethod
    def _fields(r):
        return (
            r.makespan_s, r.total_work_s, r.total_overhead_s, r.total_recovery_s,
            r.crashes_injected, r.sdcs_injected, r.replicated_tasks,
        )

    def _check_chunk_sizes(self, monkeypatch, collect_records):
        graph = WorkloadBenchmark(parse_workload(self.SPEC), scale=1.0).build_graph()
        compiled = compile_graph(graph)
        for machine in self.MACHINES:
            for config in self.CONFIGS:
                config = replace(config, collect_records=collect_records)
                expected = simulate_graph(graph, machine, config)
                for chunk in (1, 7, compiled.n):
                    monkeypatch.setenv("REPRO_SIM_CHUNK_TASKS", str(chunk))
                    got = simulate_compiled(
                        SimGraphCache(compiled=compiled), machine, config, backend="python"
                    )
                    where = (machine, config, chunk)
                    assert self._fields(got) == self._fields(expected), where
                    assert got.records == (expected.records if collect_records else {}), where

    def test_chunked_replay_matches_reference(self, monkeypatch):
        self._check_chunk_sizes(monkeypatch, collect_records=False)

    def test_chunked_records_match_reference(self, monkeypatch):
        self._check_chunk_sizes(monkeypatch, collect_records=True)

    @staticmethod
    def _unaligned(a):
        """A copy of ``a`` starting one byte into its buffer (unaligned)."""
        a = np.asarray(a)
        out = np.frombuffer(bytearray(a.nbytes + 1), dtype=a.dtype, count=a.size, offset=1)
        out[:] = a
        return out

    def test_unaligned_and_store_loaded_graphs_replay(self, monkeypatch, tmp_path):
        # Store members are memory-mapped wherever the zip layout puts them,
        # so the loop must read arrays at any byte offset.
        spec = parse_workload(self.SPEC)
        compiled = generate_compiled(spec, 1.0)
        unaligned = replace(
            compiled, **{f: self._unaligned(getattr(compiled, f)) for f in ARRAY_FIELDS}
        )
        store = CompiledGraphStore(str(tmp_path))
        generate_compiled_to_store(spec, 1.0, store)
        loaded = store.load(spec.canonical, 1.0, None)
        assert isinstance(loaded.durations, np.memmap)
        monkeypatch.setenv("REPRO_SIM_CHUNK_TASKS", "7")
        for machine in self.MACHINES:
            for config in self.CONFIGS:
                expected = simulate_compiled(
                    SimGraphCache(compiled=compiled), machine, config, backend="python"
                )
                for other in (unaligned, loaded):
                    got = simulate_compiled(
                        SimGraphCache(compiled=other), machine, config, backend="python"
                    )
                    assert self._fields(got) == self._fields(expected)
                    assert got.records == expected.records

    def test_batch_python_backend_streams_consistently(self, monkeypatch):
        compiled = generate_compiled(parse_workload("erdos:tasks=150,p=0.04,sampling=skip"), 1.0)
        machine = MachineSpec(n_nodes=2, cores_per_node=4)
        config = SimulationConfig(crash_probability=0.05)
        monkeypatch.setenv("REPRO_SIM_CHUNK_TASKS", "0")
        expected = simulate_compiled_batch(
            SimGraphCache(compiled=compiled), machine, config, seeds=(0, 1, 2),
            backend="python",
        )
        monkeypatch.setenv("REPRO_SIM_CHUNK_TASKS", "41")
        streamed = simulate_compiled_batch(
            SimGraphCache(compiled=compiled), machine, config, seeds=(0, 1, 2),
            backend="python",
        )
        assert [self._fields(r) for r in streamed] == [self._fields(r) for r in expected]

    def test_chunk_env_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_CHUNK_TASKS", raising=False)
        assert sim_chunk_tasks(100) > 0
        monkeypatch.setenv("REPRO_SIM_CHUNK_TASKS", "1234")
        assert sim_chunk_tasks(100) == 1234
        for whole in ("0", "-3"):  # <= 0: the whole graph is one chunk
            monkeypatch.setenv("REPRO_SIM_CHUNK_TASKS", whole)
            assert sim_chunk_tasks(100) == 100
            assert sim_chunk_tasks(0) == 1
        monkeypatch.setenv("REPRO_SIM_CHUNK_TASKS", "many")
        with pytest.raises(ValueError, match="REPRO_SIM_CHUNK_TASKS"):
            sim_chunk_tasks(100)


class TestRunnerWiring:
    SPEC = "pipeline:stages=4,items=5,seed=2"

    def test_store_branch_uses_direct_and_is_mmap_backed(self, tmp_path, monkeypatch):
        # Poison the object path: if the store branch lowered a TaskGraph it
        # would call the benchmark builder, which we make explode.
        import repro.analysis.runner as runner_mod

        def boom(*a, **k):  # pragma: no cover - failure path
            raise AssertionError("object graph built despite direct generation")

        monkeypatch.setattr(runner_mod, "benchmark_graph", boom)
        configure_graph_cache(enabled=True, root=str(tmp_path))
        name = parse_workload(self.SPEC).canonical
        cache = compiled_sim_cache(name, 1.0)
        assert cache.n == 20
        assert isinstance(cache.compiled.durations, np.memmap)

    def test_store_contents_identical_direct_vs_lowered(self, tmp_path):
        name = parse_workload(self.SPEC).canonical
        direct, lowered = str(tmp_path / "a"), str(tmp_path / "b")
        configure_graph_cache(enabled=True, root=direct)
        compiled_sim_cache(name, 1.0)
        CompiledGraphStore(lowered).save(name, 1.0, compile_graph(benchmark_graph(name, 1.0)))
        payloads = []
        for root in (direct, lowered):
            store = CompiledGraphStore(root)
            with open(store.path_for(store.key(name, 1.0, None)), "rb") as fh:
                payloads.append(fh.read())
        assert payloads[0] == payloads[1]

    def test_in_memory_branch_uses_direct(self, monkeypatch):
        import repro.analysis.runner as runner_mod

        def boom(*a, **k):  # pragma: no cover - failure path
            raise AssertionError("object graph built despite direct generation")

        monkeypatch.setattr(runner_mod, "benchmark_graph", boom)
        configure_graph_cache(enabled=False)
        cache = compiled_sim_cache(parse_workload(self.SPEC).canonical, 1.0)
        assert cache.n == 20


class TestTornZipQuarantine:
    def _write_entry(self, root):
        store = CompiledGraphStore(root)
        spec = parse_workload("layered:depth=8,width=6,seed=1")
        key = generate_compiled_to_store(spec, 1.0, store)
        return store, spec, key

    def test_central_directory_damage_quarantines(self, tmp_path):
        """The regression shape: zeros overlapping a central-directory record
        make ``np.load`` return raw bytes for a member, which used to escape
        ``load`` as a raw ``AttributeError`` instead of quarantining."""
        store, spec, key = self._write_entry(str(tmp_path))
        path = store.path_for(key)
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        sig = data.find(b"PK\x01\x02", 100)
        assert sig > 14, "test needs a central-directory record past the data"
        data[sig - 14 : sig + 2] = b"\x00" * 16
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        assert store.load(spec.canonical, 1.0, None) is None  # no raw escape
        assert not os.path.exists(path)  # quarantined, not left to re-fail

    def test_truncated_zip_still_quarantines(self, tmp_path):
        store, spec, key = self._write_entry(str(tmp_path))
        path = store.path_for(key)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])
        assert store.load(spec.canonical, 1.0, None) is None
        assert not os.path.exists(path)

    def test_intact_entry_still_loads(self, tmp_path):
        store, spec, key = self._write_entry(str(tmp_path))
        loaded = store.load(spec.canonical, 1.0, None)
        assert loaded is not None and loaded.n == 48
        with zipfile.ZipFile(store.path_for(key)) as zf:  # sanity: a real zip
            assert set(zf.namelist()) == {f + ".npy" for f in ARRAY_FIELDS}
