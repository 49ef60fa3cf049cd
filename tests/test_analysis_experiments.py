"""Tests for repro.analysis — metrics and the figure/table experiment drivers.

These run at very small scales so the whole module stays fast; the benchmark
harness in ``benchmarks/`` runs the same drivers at larger scales.  A stdlib
``ast`` walk pins the one seam between the fast and the reference path:
only the functions that choose a cell's graph view read ``spec.fast``.
"""

import ast
import pathlib
from typing import List

import pytest

from repro.analysis.experiments import (
    ablation_policies,
    ablation_rate_sweep,
    appfit_single_benchmark,
    figure3_appfit,
    figure4_overheads,
    figure5_scalability_shared,
    figure6_scalability_distributed,
    table1_benchmark_inventory,
)
from repro.analysis.metrics import (
    AggregateReplication,
    ScalabilityCurve,
    aggregate_replication,
    overhead_percent,
    speedup_series,
)
from repro.analysis.report import PAPER_REFERENCE, qualitative_checks
from repro.core.engine import ReplicationDecisions

SCALE = 0.08
FAST_BENCHES = ("cholesky", "fft")


class TestMetrics:
    def _decisions(self, task_frac, time_frac):
        return ReplicationDecisions(
            policy_name="x",
            total_tasks=100,
            replicated_tasks=int(task_frac * 100),
            total_duration_s=100.0,
            replicated_duration_s=time_frac * 100.0,
        )

    def test_aggregate_replication_average(self):
        agg = aggregate_replication(
            {"a": self._decisions(0.5, 0.6), "b": self._decisions(0.3, 0.2)}
        )
        assert agg.mean_task_fraction == pytest.approx(0.4)
        assert agg.mean_time_fraction == pytest.approx(0.4)
        assert agg.mean_task_percent == pytest.approx(40.0)

    def test_aggregate_empty(self):
        agg = aggregate_replication({})
        assert agg.mean_task_fraction == 0.0

    def test_speedup_series(self):
        assert speedup_series([10.0, 5.0, 2.5]) == pytest.approx([1.0, 2.0, 4.0])

    def test_speedup_series_empty(self):
        assert speedup_series([]) == []

    def test_scalability_curve(self):
        curve = ScalabilityCurve("b", 0.0, x_values=[1, 4], makespans_s=[8.0, 2.0])
        assert curve.speedups == pytest.approx([1.0, 4.0])
        assert curve.parallel_efficiency == pytest.approx([1.0, 1.0])


class TestTable1:
    def test_all_nine_rows(self):
        result = table1_benchmark_inventory(scale=SCALE)
        assert len(result.rows) == 9
        assert {r["benchmark"] for r in result.rows} == {
            "sparselu", "cholesky", "fft", "perlin", "stream",
            "nbody", "matmul", "pingpong", "linpack",
        }

    def test_render_contains_groups(self):
        text = table1_benchmark_inventory(scale=SCALE, benchmarks=("cholesky", "nbody")).render()
        assert "shared-memory" in text and "distributed" in text


class TestFigure3:
    @pytest.fixture(scope="class")
    def fig3(self):
        return figure3_appfit(scale=SCALE, multipliers=(10.0, 5.0), benchmarks=FAST_BENCHES)

    def test_row_per_benchmark_and_multiplier(self, fig3):
        assert len(fig3.rows) == len(FAST_BENCHES) * 2

    def test_threshold_always_respected(self, fig3):
        assert all(r["threshold_respected"] for r in fig3.rows)
        assert all(r["envelope_respected"] for r in fig3.rows)

    def test_complete_replication_not_needed(self, fig3):
        assert all(r["task_fraction"] < 1.0 for r in fig3.rows)

    def test_10x_needs_at_least_as_much_as_5x(self, fig3):
        for name in FAST_BENCHES:
            by_mult = {r["multiplier"]: r for r in fig3.rows if r["benchmark"] == name}
            assert by_mult[10.0]["task_fraction"] >= by_mult[5.0]["task_fraction"] - 1e-9

    def test_averages_populated(self, fig3):
        assert set(fig3.averages) == {10.0, 5.0}
        assert 0.0 < fig3.averages[10.0]["task_fraction"] <= 1.0

    def test_render(self, fig3):
        text = fig3.render()
        assert "average @ 10x" in text and "%" in text

    def test_qualitative_checks_pass(self, fig3):
        assert qualitative_checks(fig3=fig3) == []


class TestFigure4:
    @pytest.fixture(scope="class")
    def fig4(self):
        return figure4_overheads(scale=SCALE, benchmarks=FAST_BENCHES)

    def test_overheads_low_and_non_negative(self, fig4):
        for row in fig4.rows:
            assert -1.0 < row["overhead_percent"] < 40.0
        assert fig4.average_overhead_percent < 20.0

    def test_replicated_makespan_not_smaller(self, fig4):
        for row in fig4.rows:
            assert row["replicated_makespan_s"] >= row["baseline_makespan_s"] - 1e-12

    def test_render_mentions_average(self, fig4):
        assert "average overhead" in fig4.render()

    def test_qualitative_checks_pass(self, fig4):
        assert qualitative_checks(fig4=fig4) == []


class TestFigure5And6:
    def test_shared_memory_scalability_shape(self):
        fig5 = figure5_scalability_shared(
            scale=0.25,
            core_counts=(1, 4, 16),
            fault_rates=(0.0,),
            benchmarks=("cholesky", "stream"),
        )
        chol = fig5.curve("cholesky", 0.0)
        stream = fig5.curve("stream", 0.0)
        assert chol[-1]["speedup"] > 3.0          # compute-bound benchmark scales
        assert stream[-1]["speedup"] < 2.0        # memory-bound benchmark does not
        assert chol[0]["speedup"] == pytest.approx(1.0)

    def test_fault_rate_does_not_break_scaling(self):
        fig5 = figure5_scalability_shared(
            scale=0.25, core_counts=(1, 16), fault_rates=(0.0, 0.05), benchmarks=("cholesky",)
        )
        clean = fig5.curve("cholesky", 0.0)[-1]["speedup"]
        faulty = fig5.curve("cholesky", 0.05)[-1]["speedup"]
        assert faulty > 0.7 * clean

    def test_distributed_scalability(self):
        fig6 = figure6_scalability_distributed(
            scale=0.08, node_counts=(4, 16), fault_rates=(0.0,), benchmarks=("nbody",)
        )
        curve = fig6.curve("nbody", 0.0)
        assert curve[0]["x"] == 64 and curve[-1]["x"] == 256
        assert curve[-1]["speedup"] > 2.0

    def test_render(self):
        fig6 = figure6_scalability_distributed(
            scale=0.08, node_counts=(4,), fault_rates=(0.0,), benchmarks=("pingpong",)
        )
        assert "cores" in fig6.render()


class TestAblations:
    def test_policy_comparison_rows(self):
        result = ablation_policies(scale=SCALE, benchmarks=("cholesky",))
        policies = {r["policy"] for r in result.rows}
        assert policies == {"app_fit", "knapsack_oracle", "random", "top_fit", "complete"}

    def test_appfit_and_oracle_meet_threshold(self):
        result = ablation_policies(scale=SCALE, benchmarks=("cholesky",))
        for row in result.rows:
            if row["policy"] in ("app_fit", "knapsack_oracle", "complete"):
                assert row["meets_threshold"]

    def test_random_same_budget_misses_threshold(self):
        """A FIT-oblivious policy with the same replica count cannot guarantee
        the target — the reason a budget-aware heuristic is needed."""
        result = ablation_policies(scale=SCALE, benchmarks=("cholesky",))
        rows = {r["policy"]: r for r in result.rows}
        assert rows["random"]["unprotected_fit"] >= rows["app_fit"]["unprotected_fit"]

    def test_rate_sweep_monotone(self):
        sweep = ablation_rate_sweep("cholesky", scale=SCALE, multipliers=(2.0, 5.0, 10.0), residual_factors=(0.0,))
        fracs = [r["task_fraction"] for r in sweep.rows]
        assert fracs == sorted(fracs)

    def test_rate_sweep_render(self):
        sweep = ablation_rate_sweep("cholesky", scale=SCALE, multipliers=(5.0,), residual_factors=(0.0,))
        assert "cholesky" in sweep.render()


class TestQuickstartAndReference:
    def test_quickstart_summary(self):
        text = appfit_single_benchmark("cholesky", multiplier=10.0, scale=SCALE)
        assert "tasks replicated" in text and "threshold respected" in text

    def test_paper_reference_numbers_present(self):
        assert PAPER_REFERENCE["fig3_task_percent_10x"] == 53.0
        assert PAPER_REFERENCE["fig4_average_overhead_percent"] == 2.5

    def test_qualitative_checks_empty_for_no_input(self):
        assert qualitative_checks() == []


# ---------------------------------------------------------------------------------
# the fast/reference seam
# ---------------------------------------------------------------------------------

EXPERIMENTS = (
    pathlib.Path(__file__).resolve().parents[1] / "src" / "repro" / "analysis" / "experiments.py"
)

#: The functions that choose a cell's path: the graph view a cell reads and
#: the compiled graphs a fast cell declares.  Every other function reads a view.
PATH_CHOOSERS = frozenset({"_graph_view", "_registry_graph", "_fig6_graphs"})


def spec_fast_reads(source: str) -> List[str]:
    """Every ``spec.fast`` read, as ``function (line N)`` of its innermost function."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Attribute)
                and child.attr == "fast"
                and isinstance(child.value, ast.Name)
                and child.value.id == "spec"
            ):
                found.append(f"{owner} (line {child.lineno})")
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_the_check_flags_every_spec_fast_read():
    source = (
        "flag = spec.fast\n"
        "def _graph_view(spec):\n"
        "    return spec.fast\n"
        "def cell(spec, other):\n"
        "    if spec.fast:\n"
        "        def inner():\n"
        "            return spec.fast\n"
        "    return other.fast\n"
    )
    assert spec_fast_reads(source) == [
        "<module> (line 1)",
        "_graph_view (line 3)",
        "cell (line 5)",
        "inner (line 7)",
    ]


def test_only_the_path_choosers_read_spec_fast():
    reads = spec_fast_reads(EXPERIMENTS.read_text(encoding="utf-8"))
    offenders = [read for read in reads if read.split(" ")[0] not in PATH_CHOOSERS]
    assert not offenders, f"read the cell's graph view (_graph_view) instead: {offenders}"
    assert {read.split(" ")[0] for read in reads} == PATH_CHOOSERS
