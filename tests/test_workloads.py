"""The workload subsystem: spec grammar, generators, traces, engine plumbing.

Covers the ISSUE-4 checklist: canonical spec parsing, registry dispatch,
structural properties of every generator family, trace export/import round
trips, content-addressing of compiled workload graphs (including the
cross-process determinism criterion: same spec + seed -> same store key and
byte-identical ``.npz`` payload in a subprocess), fast/reference equivalence
of ``workload_cell``, engine-level cell caching, and the cache-maintenance
satellites (human-readable sizes, workload age-out).
"""

import hashlib
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.analysis.experiments import SWEEP_POLICIES, workload_sweep
from repro.analysis.runner import ExperimentEngine, clear_caches, configure_graph_cache
from repro.analysis.store import ResultStore
from repro.apps import create_benchmark
from repro.runtime.compiled import (
    ARRAY_FIELDS,
    CompiledGraphStore,
    compile_graph,
    is_workload_benchmark_name,
)
from repro.util.units import format_bytes
from repro.workloads import (
    FAMILIES,
    WorkloadBenchmark,
    export_trace,
    expected_task_count,
    family_names,
    is_workload_name,
    load_trace,
    parse_workload,
)

#: The issue's acceptance-criterion spec, used throughout.
ACCEPT_SPEC = "layered:depth=12,width=8,seed=7"

#: One small, fast spec per synthetic family.
SMALL_SPECS = (
    "layered:depth=4,width=3,fanin=2,seed=3",
    "erdos:tasks=24,p=0.15,seed=3",
    "forkjoin:stages=2,width=4,seed=3",
    "pipeline:stages=3,items=4,seed=3",
    "wavefront:rows=4,cols=3,seed=3",
    "mapreduce:maps=5,reduces=2,rounds=2,seed=3",
)


@pytest.fixture(autouse=True)
def _isolated_caches():
    """Workload tests must not touch a real cache root or leak memos."""
    configure_graph_cache(enabled=None, root=None)
    clear_caches()
    yield
    configure_graph_cache(enabled=None, root=None)
    clear_caches()


# ---------------------------------------------------------------------------------
# spec grammar
# ---------------------------------------------------------------------------------


class TestSpecGrammar:
    def test_canonical_fills_defaults_and_sorts(self):
        spec = parse_workload(ACCEPT_SPEC)
        assert spec.family == "layered"
        # Every family parameter is present, sorted by name.
        names = [k for k, _ in spec.params]
        assert names == sorted(names)
        assert set(names) == {p.name for p in FAMILIES["layered"].params}
        assert spec.param("depth") == 12 and spec.param("seed") == 7

    def test_canonical_is_spelling_independent(self):
        a = parse_workload("layered:width=8,seed=7,depth=12")
        b = parse_workload("layered:depth=12,width=8,seed=7")
        assert a == b and a.canonical == b.canonical

    def test_canonical_round_trips(self):
        for text in SMALL_SPECS:
            spec = parse_workload(text)
            assert parse_workload(spec.canonical) == spec

    def test_bare_family_name_uses_defaults(self):
        spec = parse_workload("wavefront")
        assert spec.param("rows") == 12 and spec.param("cols") == 12

    def test_unknown_family_and_parameter_errors(self):
        with pytest.raises(KeyError, match="unknown workload family"):
            parse_workload("moebius:tasks=3")
        with pytest.raises(ValueError, match="unknown parameter"):
            parse_workload("layered:depthh=3")
        with pytest.raises(ValueError, match="not a valid int"):
            parse_workload("layered:depth=soon")
        with pytest.raises(ValueError, match="must be >="):
            parse_workload("layered:depth=1")
        with pytest.raises(ValueError, match="malformed"):
            parse_workload("layered:depth")

    def test_trace_requires_existing_file(self):
        with pytest.raises(ValueError, match="requires parameter 'file'"):
            parse_workload("trace")
        with pytest.raises(ValueError, match="not found"):
            parse_workload("trace:file=/nonexistent/trace.json")

    def test_trace_path_with_grammar_separators_is_rejected_upfront(
        self, tmp_path, monkeypatch
    ):
        # A ',' (or '=') in the *absolute* path would canonicalise to a name
        # the grammar itself cannot re-parse (a path given with an explicit
        # comma already fails at the split).  A relative spec picks the comma
        # up from the working directory; the parse must fail clearly instead
        # of emitting a poisoned canonical name.
        bad_dir = tmp_path / "a,b"
        bad_dir.mkdir()
        (bad_dir / "trace.json").write_text(
            '{"tasks": [{"id": 0, "duration_s": 1, "output_bytes": 8}]}'
        )
        monkeypatch.chdir(bad_dir)
        with pytest.raises(ValueError, match="cannot represent"):
            parse_workload("trace:file=trace.json")

    def test_is_workload_name(self):
        assert is_workload_name(ACCEPT_SPEC)
        assert is_workload_name("erdos")
        assert not is_workload_name("cholesky")
        assert not is_workload_name("linpack")


# ---------------------------------------------------------------------------------
# generators: structure, scaling, registry dispatch
# ---------------------------------------------------------------------------------


class TestGenerators:
    def test_every_family_builds_expected_counts(self):
        for text in SMALL_SPECS:
            spec = parse_workload(text)
            graph = WorkloadBenchmark(spec).build_graph()
            assert len(graph) == expected_task_count(spec), text
            assert graph.is_acyclic(), text
            assert graph.n_edges() > 0, text

    def test_submission_order_is_topological(self):
        # The compiled CSR layout relies on edges pointing forward.
        for text in SMALL_SPECS:
            compiled = compile_graph(WorkloadBenchmark(parse_workload(text)).build_graph())
            for i in range(compiled.n):
                row = compiled.succ_indices[
                    compiled.succ_indptr[i] : compiled.succ_indptr[i + 1]
                ]
                assert np.all(row > i), text

    def test_scale_shrinks_and_grows(self):
        spec = parse_workload(ACCEPT_SPEC)
        full = expected_task_count(spec, 1.0)
        assert expected_task_count(spec, 0.2) < full < expected_task_count(spec, 2.0)
        small = WorkloadBenchmark(spec, scale=0.2).build_graph()
        assert len(small) == expected_task_count(spec, 0.2)

    def test_registry_dispatches_spec_strings(self):
        bench = create_benchmark(ACCEPT_SPEC, scale=0.2)
        assert isinstance(bench, WorkloadBenchmark)
        assert bench.name == parse_workload(ACCEPT_SPEC).canonical
        info = bench.info()
        assert info.n_tasks == len(bench.build_graph())
        assert not bench.distributed

    def test_registry_rejects_workload_kwargs_and_unknown_names(self):
        with pytest.raises(TypeError, match="spec string"):
            create_benchmark("layered:depth=4,width=2", depth=9)
        with pytest.raises(KeyError, match="unknown benchmark"):
            create_benchmark("not-a-benchmark")

    def test_block_jitter_keeps_bytes_positive_and_distinct(self):
        spec = parse_workload("erdos:tasks=16,p=0.1,block_cv=0.8,seed=5")
        compiled = compile_graph(WorkloadBenchmark(spec).build_graph())
        assert np.all(compiled.output_bytes > 0)
        assert len(np.unique(compiled.output_bytes)) > 1

    def test_duration_jitter_is_lognormal_not_constant(self):
        spec = parse_workload("pipeline:stages=3,items=5,cv=0.5,seed=2")
        compiled = compile_graph(WorkloadBenchmark(spec).build_graph())
        assert np.all(compiled.durations > 0)
        assert len(np.unique(compiled.durations)) > 1


# ---------------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------------


class TestTraces:
    def test_export_import_round_trip_is_bit_identical(self, tmp_path):
        source = WorkloadBenchmark(parse_workload(SMALL_SPECS[0]))
        graph = source.build_graph()
        path = str(tmp_path / "trace.json")
        export_trace(graph, path)

        imported = create_benchmark(f"trace:file={path}").build_graph()
        a, b = compile_graph(graph), compile_graph(imported)
        for field in ARRAY_FIELDS:
            assert np.array_equal(getattr(a, field), getattr(b, field)), field

    def test_trace_digest_is_part_of_the_canonical_name(self, tmp_path):
        graph = WorkloadBenchmark(parse_workload(SMALL_SPECS[3])).build_graph()
        path = str(tmp_path / "trace.json")
        export_trace(graph, path)
        spec = parse_workload(f"trace:file={path}")
        digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
        assert spec.param("sha256") == digest[:16]
        assert digest[:16] in spec.canonical

        # Changing the file content invalidates the canonicalised spec.
        doc = json.load(open(path))
        doc["tasks"][0]["duration_s"] *= 2
        json.dump(doc, open(path, "w"))
        with pytest.raises(ValueError, match="does not match"):
            parse_workload(spec.canonical)

    def test_trace_validation_rejects_bad_documents(self, tmp_path):
        def write(doc):
            path = str(tmp_path / "bad.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            return path

        with pytest.raises(ValueError, match="tasks"):
            load_trace(write({"no_tasks": []}))
        with pytest.raises(ValueError, match="duplicates id"):
            load_trace(write({"tasks": [
                {"id": 0, "duration_s": 1, "output_bytes": 8},
                {"id": 0, "duration_s": 1, "output_bytes": 8},
            ]}))
        with pytest.raises(ValueError, match="topologically"):
            load_trace(write({"tasks": [
                {"id": 0, "duration_s": 1, "output_bytes": 8, "deps": [1]},
                {"id": 1, "duration_s": 1, "output_bytes": 8},
            ]}))
        with pytest.raises(ValueError, match="positive duration"):
            load_trace(write({"tasks": [{"id": 0, "duration_s": 0, "output_bytes": 8}]}))


# ---------------------------------------------------------------------------------
# content-addressing and cross-process determinism (the issue's criterion)
# ---------------------------------------------------------------------------------


_CHILD_SCRIPT = textwrap.dedent(
    """
    import hashlib, json, sys
    from repro.runtime.compiled import CompiledGraphStore, compile_graph
    from repro.workloads import WorkloadBenchmark, parse_workload

    root, text, scale = sys.argv[1], sys.argv[2], float(sys.argv[3])
    spec = parse_workload(text)
    bench = WorkloadBenchmark(spec, scale=scale)
    store = CompiledGraphStore(root)
    key = store.save(spec.canonical, scale, compile_graph(bench.build_graph()))
    digest = hashlib.sha256(open(store.path_for(key), "rb").read()).hexdigest()
    print(json.dumps({"key": key, "npz_sha256": digest}))
    """
)


class TestCrossProcessDeterminism:
    def test_same_spec_same_key_and_byte_identical_npz(self, tmp_path):
        """Mirror of the compiled-graph cross-process test, for workloads."""
        scale = 0.2
        spec = parse_workload(ACCEPT_SPEC)
        parent_store = CompiledGraphStore(str(tmp_path / "parent"))
        key = parent_store.save(
            spec.canonical, scale, compile_graph(WorkloadBenchmark(spec, scale).build_graph())
        )
        parent_digest = hashlib.sha256(
            open(parent_store.path_for(key), "rb").read()
        ).hexdigest()

        env = dict(os.environ)
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", _CHILD_SCRIPT, str(tmp_path / "child"),
             ACCEPT_SPEC, str(scale)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        child = json.loads(out.stdout)
        assert child["key"] == key
        assert child["npz_sha256"] == parent_digest

    def test_key_covers_the_canonical_spec(self):
        store = CompiledGraphStore("unused")
        base = store.key(parse_workload(ACCEPT_SPEC).canonical, 0.2)
        # Same spec, different spelling: same key.
        assert store.key(parse_workload("layered:seed=7,width=8,depth=12").canonical, 0.2) == base
        # Any parameter change (here the seed) changes the key.
        assert store.key(parse_workload("layered:depth=12,width=8,seed=8").canonical, 0.2) != base
        assert store.key(parse_workload(ACCEPT_SPEC).canonical, 0.3) != base

    def test_store_marks_workload_entries(self, tmp_path):
        spec = parse_workload(SMALL_SPECS[2])
        store = CompiledGraphStore(str(tmp_path))
        store.save(spec.canonical, 1.0, compile_graph(WorkloadBenchmark(spec).build_graph()))
        (row,) = store.ls()
        assert row["workload"] is True
        assert is_workload_benchmark_name(spec.canonical)
        assert not is_workload_benchmark_name("cholesky")


# ---------------------------------------------------------------------------------
# workload_cell: fast/reference equivalence + engine caching
# ---------------------------------------------------------------------------------


class TestWorkloadCells:
    def test_fast_and_reference_rows_are_identical(self):
        kwargs = dict(
            workloads=(SMALL_SPECS[0],),
            policies=SWEEP_POLICIES,
            multipliers=(10.0,),
            fault_rates=(0.0, 0.02),
            scale=1.0,
            seed=3,
            parallelism=1,
        )
        fast = workload_sweep(fast=True, **kwargs)
        clear_caches()
        ref = workload_sweep(fast=False, **kwargs)
        assert len(fast.rows) == len(ref.rows) == 2 * len(SWEEP_POLICIES)
        for f, r in zip(fast.rows, ref.rows):
            assert f == r

    def test_warm_engine_computes_zero_cells(self, tmp_path):
        store = ResultStore(str(tmp_path))
        cold = ExperimentEngine(parallelism=1, store=store)
        result = workload_sweep(
            workloads=(ACCEPT_SPEC,), scale=0.2, engine=cold
        )
        assert cold.cells_computed == len(result.rows) > 0
        assert cold.cells_cached == 0

        warm = ExperimentEngine(parallelism=1, store=store)
        again = workload_sweep(
            workloads=("layered:seed=7,width=8,depth=12",), scale=0.2, engine=warm
        )
        assert warm.cells_computed == 0
        assert warm.cells_cached == len(again.rows) == len(result.rows)
        assert again.rows == result.rows

    def test_unknown_policy_raises(self):
        with pytest.raises(KeyError, match="unknown sweep policy"):
            workload_sweep(workloads=(SMALL_SPECS[0],), policies=("psychic",))


# ---------------------------------------------------------------------------------
# cache-maintenance satellites
# ---------------------------------------------------------------------------------


class TestCacheMaintenance:
    def test_gc_ages_out_old_workload_entries_only(self, tmp_path):
        store = CompiledGraphStore(str(tmp_path))
        spec = parse_workload(SMALL_SPECS[1])
        wkey = store.save(
            spec.canonical, 1.0, compile_graph(WorkloadBenchmark(spec).build_graph())
        )
        bkey = store.save(
            "cholesky", 0.05, compile_graph(create_benchmark("cholesky", scale=0.05).build_graph())
        )
        # Backdate both sidecars far beyond the age limit.
        for key in (wkey, bkey):
            meta_path = store.meta_path_for(key)
            meta = json.load(open(meta_path))
            meta["created_at"] = 1.0
            json.dump(meta, open(meta_path, "w"))

        # No age limit: nothing is aged.
        assert store.gc()["aged"] == 0
        # With a limit, the workload entry ages out; the Table I entry stays.
        removed = store.gc(workload_max_age_s=3600.0)
        assert removed["aged"] == 1
        assert not store.contains(spec.canonical, 1.0)
        assert store.contains("cholesky", 0.05)

    def test_fresh_workload_entries_survive_gc(self, tmp_path):
        store = CompiledGraphStore(str(tmp_path))
        spec = parse_workload(SMALL_SPECS[4])
        store.save(spec.canonical, 1.0, compile_graph(WorkloadBenchmark(spec).build_graph()))
        assert store.gc(workload_max_age_s=3600.0)["aged"] == 0
        assert store.contains(spec.canonical, 1.0)

    def test_stats_count_workloads_and_format_bytes(self, tmp_path):
        store = CompiledGraphStore(str(tmp_path))
        spec = parse_workload(SMALL_SPECS[5])
        store.save(spec.canonical, 1.0, compile_graph(WorkloadBenchmark(spec).build_graph()))
        stats = store.stats()
        assert stats["entries"] == 1 and stats["workloads"] == 1
        assert format_bytes(stats["bytes"]).endswith(("B", "KiB", "MiB", "GiB"))

    def test_format_bytes_units(self):
        assert format_bytes(0) == "0 B"
        assert format_bytes(312) == "312 B"
        assert format_bytes(1536) == "1.50 KiB"
        assert format_bytes(1024 * 1024 * 2.25) == "2.25 MiB"
        assert format_bytes(3 * 1024 ** 3) == "3.00 GiB"
        assert format_bytes(-2048) == "-2.00 KiB"
