"""Determinism and plumbing of the parallel experiment engine.

A cell's result must be a pure function of its spec: the same seed must
produce identical results whether the grid runs inline, on a 2-worker pool or
on a wider pool, and regardless of the order workers pick cells up.  These
tests use tiny scales — the point is scheduling independence, not throughput.
"""

import pytest

from repro.analysis.experiments import (
    figure3_appfit,
    figure5_scalability_shared,
    figure6_scalability_distributed,
    workload_sweep,
)
from repro.analysis.runner import (
    ExperimentEngine,
    benchmark_graph,
    clear_caches,
    configure_graph_cache,
    derive_seed,
    make_spec,
    run_cell,
)

SCALE = 0.05


class TestEngineBasics:
    def test_map_preserves_spec_order(self):
        engine = ExperimentEngine(parallelism=1, fast=True)
        specs = [
            make_spec("table1_row", name, SCALE)
            for name in ("cholesky", "stream", "fft")
        ]
        rows = engine.map(specs)
        assert [r["benchmark"] for r in rows] == ["cholesky", "stream", "fft"]

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError, match="unknown experiment kind"):
            run_cell(make_spec("no_such_kind", "cholesky", SCALE))

    def test_graph_memoised_per_configuration(self):
        g1 = benchmark_graph("cholesky", SCALE)
        g2 = benchmark_graph("cholesky", SCALE)
        g3 = benchmark_graph("cholesky", 2 * SCALE)
        assert g1 is g2
        assert g1 is not g3

    def test_derive_seed_stable_and_distinct(self):
        a = derive_seed(0, "cholesky", 0.01)
        assert a == derive_seed(0, "cholesky", 0.01)
        assert a != derive_seed(0, "cholesky", 0.05)
        assert a != derive_seed(1, "cholesky", 0.01)


class TestParallelismIndependence:
    """Same seed => identical results for parallelism 1, 2 and 3."""

    @pytest.mark.parametrize("workers", [2, 3])
    def test_figure5_rows_identical(self, workers):
        kwargs = dict(
            scale=0.2,
            core_counts=(1, 4),
            fault_rates=(0.0, 0.05),
            benchmarks=("cholesky", "fft"),
            seed=7,
        )
        serial = figure5_scalability_shared(parallelism=1, **kwargs)
        pooled = figure5_scalability_shared(parallelism=workers, **kwargs)
        assert pooled.rows == serial.rows

    def test_figure6_rows_identical(self):
        kwargs = dict(
            scale=SCALE,
            node_counts=(4, 16),
            fault_rates=(0.0, 0.01),
            benchmarks=("nbody", "pingpong"),
            seed=3,
        )
        serial = figure6_scalability_distributed(parallelism=1, **kwargs)
        pooled = figure6_scalability_distributed(parallelism=2, **kwargs)
        assert pooled.rows == serial.rows

    def test_figure3_rows_identical(self):
        kwargs = dict(scale=SCALE, multipliers=(10.0, 5.0), benchmarks=("cholesky", "stream"))
        serial = figure3_appfit(parallelism=1, **kwargs)
        pooled = figure3_appfit(parallelism=2, **kwargs)
        assert pooled.rows == serial.rows
        assert pooled.averages == serial.averages

    @pytest.mark.parametrize(
        "driver, kwargs",
        [
            (
                figure3_appfit,
                dict(scale=SCALE, multipliers=(10.0, 5.0), benchmarks=("cholesky", "fft")),
            ),
            (
                figure6_scalability_distributed,
                dict(
                    scale=SCALE,
                    node_counts=(4, 16),
                    fault_rates=(0.0, 0.01),
                    benchmarks=("nbody", "pingpong"),
                    seed=3,
                ),
            ),
            (
                workload_sweep,
                dict(
                    workloads=(
                        "layered:depth=6,width=4,seed=1",
                        "erdos:tasks=24,p=0.15,seed=3",
                    ),
                    policies=("app_fit", "top_fit"),
                    multipliers=(10.0, 5.0),
                    fault_rates=(0.0, 0.05),
                    n_seeds=3,
                ),
            ),
        ],
        ids=["fig3", "fig6", "workload_sweep"],
    )
    def test_pooled_rows_identical_with_graph_cache(self, tmp_path, driver, kwargs):
        """With the compiled-graph store on, a pooled map builds its graphs
        first, one pool task each; rows still equal the serial run's, though
        the pooled map cuts each workload's cells into smaller groups that
        share less.  Each run starts from an empty store root."""
        try:
            configure_graph_cache(enabled=True, root=str(tmp_path / "serial"))
            serial = driver(parallelism=1, **kwargs)
            clear_caches()
            configure_graph_cache(enabled=True, root=str(tmp_path / "pooled"))
            pooled = driver(parallelism=2, **kwargs)
        finally:
            configure_graph_cache(enabled=None, root=None)
            clear_caches()
        assert pooled.rows == serial.rows

    def test_repeated_runs_identical(self):
        kwargs = dict(
            scale=SCALE,
            core_counts=(1, 2),
            fault_rates=(0.05,),
            benchmarks=("perlin",),
            seed=11,
        )
        first = figure5_scalability_shared(parallelism=1, **kwargs)
        second = figure5_scalability_shared(parallelism=1, **kwargs)
        assert first.rows == second.rows
