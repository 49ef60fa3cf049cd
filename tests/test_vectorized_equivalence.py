"""Equivalence of the compiled-graph fast path and the scalar reference path.

The fast implementations (FIT estimation from compiled byte arrays, the
vectorized App_FIT sweep, the array baselines and the compiled-graph
simulator) are designed to mirror the scalar reference arithmetic operation
for operation, so everything here asserts *exact* float equality — any drift
means the two implementations diverged.  Figure-level summaries are
additionally checked through the public drivers, which exercises the
experiment engine's fast/reference duality end to end.
"""

import time
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from repro.analysis.experiments import (
    SWEEP_POLICIES,
    _appfit_threshold,
    _appfit_threshold_compiled,
    _distributed_benchmark,
    ablation_policies,
    ablation_rate_sweep,
    figure3_appfit,
    figure4_overheads,
    figure5_scalability_shared,
    figure6_scalability_distributed,
    sweep_policies,
    table1_benchmark_inventory,
)
from repro.apps import create_benchmark
from repro.apps.registry import all_benchmark_names, distributed_benchmark_names
from repro.core.engine import decide_for_graph
from repro.core.estimator import ArgumentSizeEstimator, estimate_total_fits
from repro.core.heuristic import AppFit
from repro.core.policies import CompleteReplication, RandomReplication, TopFitReplication
from repro.core.vectorized import compiled_total_fits, decide_baseline, decide_for_compiled
from repro.faults.rates import FitRateSpec
from repro.runtime.compiled import (
    ARRAY_FIELDS,
    CompiledGraph,
    CompiledGraphStore,
    compile_graph,
)
from repro.simulator import fastpath
from repro.simulator.backend import BackendUnavailable, CExtBackend, resolve_backend
from repro.simulator.execution import SimulationConfig, simulate_graph
from repro.simulator.fastpath import (
    SimGraphCache,
    simulate_compiled,
    simulate_compiled_batch,
)
from repro.simulator.machine import marenostrum_cluster, shared_memory_node
from repro.util.rng import RngStream
from repro.workloads import WorkloadBenchmark, family_names, parse_workload

#: Small scale so all nine Table I graphs build in a few seconds.
SCALE = 0.05


@pytest.fixture(scope="module")
def graphs():
    """One small graph per registered benchmark."""
    built = {}
    for name in all_benchmark_names():
        built[name] = create_benchmark(name, scale=SCALE).build_graph()
    return built


class TestSimulatorEquivalence:
    def _compare(self, graph, machine, config, cache):
        ref = simulate_graph(graph, machine, config)
        fast = simulate_compiled(cache, machine, config)
        assert fast.makespan_s == ref.makespan_s
        assert fast.total_work_s == ref.total_work_s
        assert fast.total_overhead_s == ref.total_overhead_s
        assert fast.total_recovery_s == ref.total_recovery_s
        assert fast.crashes_injected == ref.crashes_injected
        assert fast.sdcs_injected == ref.sdcs_injected
        assert fast.replicated_tasks == ref.replicated_tasks
        for tid, rec in ref.records.items():
            frec = fast.records[tid]
            assert frec.start_s == rec.start_s
            assert frec.finish_s == rec.finish_s
            assert frec.node == rec.node
            assert frec.replicated == rec.replicated

    def test_shared_memory_benchmarks(self, graphs):
        distributed = set(distributed_benchmark_names())
        for name, graph in graphs.items():
            if name in distributed:
                continue
            cache = SimGraphCache(graph)
            for cores in (1, 8):
                for rate in (0.0, 0.05):
                    config = SimulationConfig(
                        replicate_all=True,
                        crash_probability=rate,
                        sdc_probability=0.01,
                        seed=5,
                    )
                    self._compare(graph, shared_memory_node(cores), config, cache)

    def test_distributed_benchmarks(self):
        for name in distributed_benchmark_names():
            graph = _distributed_benchmark(name, 4, SCALE).build_graph()
            cache = SimGraphCache(graph)
            for rate in (0.0, 0.02):
                config = SimulationConfig(
                    replicate_all=True, crash_probability=rate, seed=1
                )
                self._compare(graph, marenostrum_cluster(n_nodes=4), config, cache)

    def test_partial_replication_and_no_contention(self, graphs):
        graph = graphs["cholesky"]
        cache = SimGraphCache(graph)
        ids = set(graph.task_ids()[::3])
        config = SimulationConfig(
            replicated_ids=ids,
            crash_probability=0.03,
            sdc_probability=0.02,
            seed=9,
            model_memory_contention=False,
        )
        self._compare(graph, shared_memory_node(4), config, cache)


class TestCompiledEquivalence:
    """The compiled-graph path is the fast spelling of the same arithmetic:
    everything it produces must equal the scalar reference, bit for bit."""

    def test_compiled_threshold_matches_both_paths(self, graphs):
        spec = FitRateSpec()
        for name, graph in graphs.items():
            compiled = compile_graph(graph)
            assert _appfit_threshold_compiled(compiled, spec) == _appfit_threshold(
                graph, spec
            ), name

    def test_compiled_fits_match_batch_estimation(self, graphs):
        estimator = ArgumentSizeEstimator(FitRateSpec().scaled(10.0))
        for name, graph in graphs.items():
            compiled = compile_graph(graph)
            from_bytes = compiled_total_fits(estimator, compiled)
            from_tasks = estimate_total_fits(estimator, graph.tasks())
            assert from_bytes.tolist() == from_tasks.tolist(), name

    @pytest.mark.parametrize("multiplier", [5.0, 10.0])
    @pytest.mark.parametrize("residual", [0.0, 0.1])
    def test_compiled_decisions_match_reference(self, graphs, multiplier, residual):
        spec = FitRateSpec()
        for name, graph in graphs.items():
            compiled = compile_graph(graph)
            threshold = _appfit_threshold(graph, spec)
            estimator = ArgumentSizeEstimator(spec.scaled(multiplier))
            policy = AppFit(threshold, len(graph), estimator, residual_fit_factor=residual)
            ref = decide_for_graph(graph, policy)
            ref_audit = policy.audit()
            fast = decide_for_compiled(
                compiled, threshold, estimator, residual_fit_factor=residual
            )
            assert fast.replicated_ids == ref.replicated_ids, name
            assert fast.task_fraction == ref.task_fraction, name
            assert fast.time_fraction == ref.time_fraction, name
            assert fast.total_duration_s == ref.total_duration_s, name
            assert fast.audit.current_fit == ref_audit.current_fit, name
            assert fast.audit.max_envelope_excess == ref_audit.max_envelope_excess, name
            assert fast.audit.threshold_respected == ref_audit.threshold_respected, name

    def test_compiled_rejects_descriptor_needing_estimators(self, graphs):
        class PerTaskEstimator:
            """Estimates from descriptors only (no ``estimate_batch_bytes``)."""

            def estimate(self, task):
                raise AssertionError("a compiled graph has no descriptors")

        compiled = compile_graph(graphs["cholesky"])
        with pytest.raises(TypeError):
            compiled_total_fits(PerTaskEstimator(), compiled)


class TestArrayBaselines:
    """Each array baseline equals ``decide_for_graph`` with its descriptor
    policy, at the budget edges (no draws at 0 and 1) and in between."""

    @pytest.mark.parametrize("fraction", [0.0, 0.37, 1.0])
    def test_baselines_match_descriptor_policies(self, graphs, fraction):
        estimator = ArgumentSizeEstimator(FitRateSpec().scaled(10.0))
        for name, graph in graphs.items():
            compiled = compile_graph(graph)
            ids, durations = compiled.task_ids.tolist(), compiled.durations.tolist()
            fits = compiled_total_fits(estimator, compiled)
            for policy in (
                TopFitReplication(fraction, estimator),
                RandomReplication(fraction, rng=RngStream(13)),
                CompleteReplication(),
            ):
                ref = decide_for_graph(graph, policy)
                fast = decide_baseline(policy.name, ids, fits, durations, fraction, 13)
                assert fast.replicated_ids == ref.replicated_ids, (name, policy.name)
                assert fast.task_fraction == ref.task_fraction, (name, policy.name)
                assert fast.time_fraction == ref.time_fraction, (name, policy.name)
                assert fast.total_duration_s == ref.total_duration_s, (name, policy.name)


class TestDriverEquivalence:
    """Figure summary numbers match between fast and reference paths."""

    def test_figure3_rows_and_averages(self):
        kwargs = dict(scale=SCALE, multipliers=(10.0, 5.0), parallelism=1)
        fast = figure3_appfit(fast=True, **kwargs)
        ref = figure3_appfit(fast=False, **kwargs)
        assert fast.rows == ref.rows
        assert fast.averages == ref.averages

    def test_figure4_rows(self):
        kwargs = dict(scale=SCALE, benchmarks=("cholesky", "stream"), parallelism=1)
        fast = figure4_overheads(fast=True, **kwargs)
        ref = figure4_overheads(fast=False, **kwargs)
        assert fast.rows == ref.rows

    def test_figure5_rows(self):
        kwargs = dict(
            scale=0.2,
            core_counts=(1, 4, 16),
            fault_rates=(0.0, 0.05),
            benchmarks=("cholesky", "stream"),
            parallelism=1,
        )
        fast = figure5_scalability_shared(fast=True, **kwargs)
        ref = figure5_scalability_shared(fast=False, **kwargs)
        assert fast.rows == ref.rows

    def test_sweep_policies_rows(self):
        kwargs = dict(
            benchmarks=all_benchmark_names(),
            policies=SWEEP_POLICIES,
            multipliers=(10.0,),
            scale=SCALE,
            residual_fit_factor=0.1,
            parallelism=1,
        )
        fast = sweep_policies(fast=True, **kwargs)
        ref = sweep_policies(fast=False, **kwargs)
        assert len(fast.rows) == len(all_benchmark_names()) * len(SWEEP_POLICIES)
        assert fast.rows == ref.rows

    def test_ablation_policies_rows(self):
        kwargs = dict(scale=SCALE, benchmarks=all_benchmark_names(), parallelism=1)
        fast = ablation_policies(fast=True, **kwargs)
        ref = ablation_policies(fast=False, **kwargs)
        assert len(fast.rows) == 5 * len(all_benchmark_names())
        assert fast.rows == ref.rows

    def test_table1_rows(self):
        kwargs = dict(scale=SCALE, parallelism=1)
        fast = table1_benchmark_inventory(fast=True, **kwargs)
        ref = table1_benchmark_inventory(fast=False, **kwargs)
        assert len(fast.rows) == len(all_benchmark_names())
        assert fast.rows == ref.rows

    @pytest.mark.parametrize("name", ["cholesky", "linpack"])
    def test_rate_sweep_rows(self, name):
        kwargs = dict(
            benchmark=name,
            scale=SCALE,
            multipliers=(1.0, 5.0, 20.0),
            residual_factors=(0.0, 0.1),
            parallelism=1,
        )
        fast = ablation_rate_sweep(fast=True, **kwargs)
        ref = ablation_rate_sweep(fast=False, **kwargs)
        assert len(fast.rows) == 6
        assert fast.rows == ref.rows

    def test_figure6_rows(self):
        kwargs = dict(
            scale=SCALE,
            node_counts=(4, 16),
            fault_rates=(0.0, 0.05),
            n_seeds=2,
            parallelism=1,
        )
        fast = figure6_scalability_distributed(fast=True, **kwargs)
        ref = figure6_scalability_distributed(fast=False, **kwargs)
        assert len(fast.rows) == 2 * 2 * len(distributed_benchmark_names())
        assert fast.rows == ref.rows


def _assert_results_identical(got, ref):
    """Every observable field of two SimulationResults must match exactly."""
    assert got.makespan_s == ref.makespan_s
    assert got.total_work_s == ref.total_work_s
    assert got.total_overhead_s == ref.total_overhead_s
    assert got.total_recovery_s == ref.total_recovery_s
    assert got.crashes_injected == ref.crashes_injected
    assert got.sdcs_injected == ref.sdcs_injected
    assert got.replicated_tasks == ref.replicated_tasks
    assert set(got.records) == set(ref.records)
    for tid, rec in ref.records.items():
        grec = got.records[tid]
        assert grec.start_s == rec.start_s
        assert grec.finish_s == rec.finish_s
        assert grec.node == rec.node
        assert grec.replicated == rec.replicated


def _backend_or_skip(name):
    """Resolve a named backend, skipping the test when it is unavailable."""
    try:
        resolve_backend(name)
    except BackendUnavailable as exc:
        pytest.skip(f"backend {name!r} unavailable: {exc}")
    return name


@contextmanager
def _kernel_lanes():
    """The lane count of every C kernel call made inside the block."""
    lanes = []
    real = CExtBackend.run_batch

    def spy(self, n_lanes, *args):
        lanes.append(n_lanes)
        return real(self, n_lanes, *args)

    with mock.patch.object(CExtBackend, "run_batch", spy):
        yield lanes


#: The synthetic workload families (``trace`` needs an input file, so the
#: parametric six are the batch-identity surface the ISSUE asks for).
SYNTHETIC_FAMILIES = tuple(n for n in family_names() if n != "trace")

_BATCH_SEEDS = [0, 7, 123, 2**31 + 5]


def _one_byte_in(arr: np.ndarray) -> np.ndarray:
    """A copy of ``arr`` whose data starts one byte into its buffer."""
    buf = bytearray(arr.nbytes + 1)
    out = np.frombuffer(buf, dtype=arr.dtype, count=arr.size, offset=1)
    out[...] = arr.ravel()
    return out.reshape(arr.shape)


@pytest.fixture(scope="module")
def family_graphs():
    """One small graph per synthetic workload family, default parameters."""
    return {
        fam: WorkloadBenchmark(parse_workload(fam), scale=0.3).build_graph()
        for fam in SYNTHETIC_FAMILIES
    }


class TestBatchedSimulation:
    """Lane ``j`` of ``simulate_compiled_batch`` must be bit-identical to the
    scalar python replay of ``seeds[j]`` — independent of which other seeds
    share the batch, of seed order, and of the backend running the lanes."""

    def _assert_lanes_match_scalar(self, cache, machine, config, seeds, backend=None):
        batch = simulate_compiled_batch(cache, machine, config, seeds=seeds, backend=backend)
        assert len(batch) == len(seeds)
        for seed, got in zip(seeds, batch):
            ref = simulate_compiled(
                cache, machine, replace(config, seed=seed), backend="python"
            )
            _assert_results_identical(got, ref)

    @pytest.mark.parametrize("family", SYNTHETIC_FAMILIES)
    def test_workload_families(self, family_graphs, family):
        graph = family_graphs[family]
        cache = SimGraphCache(graph)
        config = SimulationConfig(
            replicated_ids=set(graph.task_ids()[::2]),
            crash_probability=0.05,
            sdc_probability=0.02,
            seed=0,
        )
        self._assert_lanes_match_scalar(
            cache, shared_memory_node(4), config, _BATCH_SEEDS
        )

    def test_paper_benchmarks_at_scale(self):
        distributed = set(distributed_benchmark_names())
        for name in all_benchmark_names():
            if name in distributed:
                graph = _distributed_benchmark(name, 4, 0.2).build_graph()
                machine = marenostrum_cluster(n_nodes=4)
            else:
                graph = create_benchmark(name, scale=0.2).build_graph()
                machine = shared_memory_node(8)
            cache = SimGraphCache(graph)
            config = SimulationConfig(
                replicate_all=True,
                crash_probability=0.05,
                sdc_probability=0.01,
                seed=0,
            )
            self._assert_lanes_match_scalar(cache, machine, config, [3, 11])

    def test_seed_order_invariance(self, graphs):
        cache = SimGraphCache(graphs["cholesky"])
        machine = shared_memory_node(4)
        config = SimulationConfig(replicate_all=True, crash_probability=0.05, seed=0)
        forward = simulate_compiled_batch(cache, machine, config, seeds=_BATCH_SEEDS)
        perm = [2, 0, 3, 1]
        shuffled = simulate_compiled_batch(
            cache, machine, config, seeds=[_BATCH_SEEDS[i] for i in perm]
        )
        for lane, i in enumerate(perm):
            _assert_results_identical(shuffled[lane], forward[i])

    def test_batch_size_invariance(self, graphs):
        cache = SimGraphCache(graphs["stream"])
        machine = shared_memory_node(4)
        config = SimulationConfig(replicate_all=True, crash_probability=0.08, seed=0)
        seeds = [0, 1, 2, 3, 4]
        whole = simulate_compiled_batch(cache, machine, config, seeds=seeds)
        split = simulate_compiled_batch(
            cache, machine, config, seeds=seeds[:2]
        ) + simulate_compiled_batch(cache, machine, config, seeds=seeds[2:])
        for got, ref in zip(split, whole):
            _assert_results_identical(got, ref)

    def test_singleton_batch_matches_simulate_compiled(self, graphs):
        cache = SimGraphCache(graphs["fft"])
        machine = shared_memory_node(2)
        config = SimulationConfig(replicate_all=True, crash_probability=0.05, seed=17)
        (got,) = simulate_compiled_batch(cache, machine, config, seeds=[17])
        _assert_results_identical(got, simulate_compiled(cache, machine, config))

    def test_empty_batch(self, graphs):
        cache = SimGraphCache(graphs["fft"])
        assert simulate_compiled_batch(
            cache, shared_memory_node(2), SimulationConfig(), seeds=[]
        ) == []

    @pytest.mark.parametrize("backend", ["cext"])
    def test_compiled_backends_match_python(self, graphs, backend):
        _backend_or_skip(backend)
        cache = SimGraphCache(graphs["cholesky"])
        config = SimulationConfig(
            replicated_ids=set(graphs["cholesky"].task_ids()[::3]),
            crash_probability=0.05,
            sdc_probability=0.02,
            seed=0,
        )
        for machine in (shared_memory_node(4), marenostrum_cluster(n_nodes=2)):
            self._assert_lanes_match_scalar(
                cache, machine, config, _BATCH_SEEDS, backend=backend
            )

    def test_store_loaded_graph(self, graphs, tmp_path):
        """A graph memory-mapped from the compiled-graph store replays like
        an in-memory one.  The sanitizer CI step runs this class, so this is
        its store round trip: the kernel reads the mapped arrays in place."""
        store = CompiledGraphStore(str(tmp_path))
        store.save("cholesky", SCALE, compile_graph(graphs["cholesky"]))
        cache = SimGraphCache.from_compiled(store.load("cholesky", SCALE))
        assert isinstance(cache.compiled.succ_indices, np.memmap)
        config = SimulationConfig(
            replicate_all=True, crash_probability=0.05, sdc_probability=0.02, seed=0
        )
        for machine in (shared_memory_node(4), marenostrum_cluster(n_nodes=2)):
            self._assert_lanes_match_scalar(cache, machine, config, _BATCH_SEEDS)

    @pytest.mark.parametrize("backend", ["cext"])
    def test_unaligned_arrays_replay_like_python(self, graphs, backend):
        """Arrays that start one byte into their buffers (as unpadded store
        members did) reach the kernel aligned, with the same results."""
        _backend_or_skip(backend)
        compiled = compile_graph(graphs["cholesky"])
        shifted = CompiledGraph(
            **{f: _one_byte_in(getattr(compiled, f)) for f in ARRAY_FIELDS}
        )
        cache = SimGraphCache.from_compiled(shifted)
        assert not cache.static_np()[1].flags.aligned
        config = SimulationConfig(
            replicated_ids=set(graphs["cholesky"].task_ids()[::3]),
            crash_probability=0.05,
            sdc_probability=0.02,
            seed=0,
        )
        self._assert_lanes_match_scalar(
            cache, shared_memory_node(4), config, _BATCH_SEEDS, backend=backend
        )

    @pytest.mark.parametrize("backend", ["cext"])
    def test_exhausted_uniform_block_raises(self, graphs, backend):
        """Kernel return code 3: a lane that runs out of pre-drawn uniforms
        fails the batch, naming the cause, instead of reading past its row.
        With the real draw bound the same batch replays like the python loop."""
        _backend_or_skip(backend)
        cache = SimGraphCache(graphs["cholesky"])
        config = SimulationConfig(
            replicated_ids=set(graphs["cholesky"].task_ids()[::3]),
            crash_probability=0.05,
            sdc_probability=0.02,
            seed=0,
        )
        machine = shared_memory_node(4)
        with mock.patch.object(fastpath, "_max_draws", return_value=8):
            with pytest.raises(RuntimeError, match="pre-drawn uniform block exhausted"):
                simulate_compiled_batch(
                    cache, machine, config, seeds=_BATCH_SEEDS, backend=backend
                )
        self._assert_lanes_match_scalar(cache, machine, config, _BATCH_SEEDS, backend=backend)

    @pytest.mark.parametrize("backend", ["python", "cext"])
    @pytest.mark.parametrize(
        "crash, sdc, replicate_all",
        [(0.0, 0.0, False), (1.0, 0.0, False), (0.0, 1.0, False), (0.0, 0.0, True)],
        ids=["none", "crash1", "sdc1", "none-replicate-all"],
    )
    def test_batch_that_draws_nothing_replays_one_lane(
        self, graphs, backend, crash, sdc, replicate_all
    ):
        """Probabilities that are each 0 or 1 draw no uniform, so every seed
        replays alike: the batch replays its first seed alone, and every lane
        still matches its own scalar replay, with its own seed and records."""
        _backend_or_skip(backend)
        graph = graphs["cholesky"]
        cache = SimGraphCache(graph)
        machine = shared_memory_node(4)
        config = SimulationConfig(
            replicated_ids=None if replicate_all else set(graph.task_ids()[::3]),
            replicate_all=replicate_all,
            crash_probability=crash,
            sdc_probability=sdc,
            seed=0,
        )
        with _kernel_lanes() as lanes:
            self._assert_lanes_match_scalar(cache, machine, config, _BATCH_SEEDS, backend)
            batch = simulate_compiled_batch(
                cache, machine, config, seeds=_BATCH_SEEDS, backend=backend
            )
        assert lanes == ([1, 1] if backend == "cext" else [])
        assert [lane.config.seed for lane in batch] == _BATCH_SEEDS
        assert all(len(lane.records) == len(graph) for lane in batch)
        assert len({id(lane.records) for lane in batch}) == len(batch)
        first = graph.task_ids()[0]
        assert len({id(lane.records[first]) for lane in batch}) == len(batch)

    def test_batch_that_draws_sends_every_lane_to_the_kernel(self, graphs):
        _backend_or_skip("cext")
        cache = SimGraphCache(graphs["cholesky"])
        config = SimulationConfig(crash_probability=0.05, seed=0)
        with _kernel_lanes() as lanes:
            self._assert_lanes_match_scalar(
                cache, shared_memory_node(4), config, _BATCH_SEEDS, "cext"
            )
        assert lanes == [len(_BATCH_SEEDS)]

    @pytest.mark.parametrize("name", ["numba", "pykernel"])
    def test_retired_backend_names_raise(self, monkeypatch, name):
        monkeypatch.setenv("REPRO_SIM_BACKEND", name)
        with pytest.raises(ValueError, match=r"REPRO_SIM_BACKEND.*auto\|python\|cext"):
            resolve_backend()


class TestReplicatedIdsNormalization:
    """Regression: list-valued ``replicated_ids`` used to hit an O(n·m)
    membership scan in the replication flags; the config now normalizes to a
    frozenset at construction, so flags stay O(n) and results are unchanged."""

    def test_list_config_is_normalized_and_identical(self, graphs):
        graph = graphs["cholesky"]
        cache = SimGraphCache(graph)
        ids = graph.task_ids()[::3]
        as_list = SimulationConfig(
            replicated_ids=list(ids), crash_probability=0.03, seed=9
        )
        as_set = SimulationConfig(
            replicated_ids=frozenset(ids), crash_probability=0.03, seed=9
        )
        assert isinstance(as_list.replicated_ids, frozenset)
        assert as_list.replicated_ids == as_set.replicated_ids
        machine = shared_memory_node(4)
        _assert_results_identical(
            simulate_compiled(cache, machine, as_list),
            simulate_compiled(cache, machine, as_set),
        )

    def test_no_quadratic_blowup_on_large_graph(self):
        # 10k tasks x 10k list entries was ~1e8 membership checks before the
        # fix; with frozenset normalization the flag pass is linear.  The
        # bound is generous (the old behaviour took well over a minute).
        graph = WorkloadBenchmark(
            parse_workload("layered:depth=100,width=100,seed=1"), scale=1.0
        ).build_graph()
        cache = SimGraphCache(graph)
        config = SimulationConfig(replicated_ids=list(graph.task_ids()))
        start = time.monotonic()
        flags = cache.replicated_flags_np(config)
        elapsed = time.monotonic() - start
        assert flags.all() and len(flags) == len(graph)
        assert elapsed < 5.0
