"""Experiment drivers: one function per paper table/figure plus ablations.

Every driver returns a result object carrying structured ``rows`` (dictionaries
with plain-Python values, easy to assert on in tests) and a ``render()`` method
producing the text table the benchmark harness prints.  ``scale=1.0``
reproduces the Table I problem sizes; the benchmark harness uses smaller scales
by default so the full suite completes in minutes (replication *percentages*
and speedup *shapes* are insensitive to the scale, which the tests verify).

Since the parallel-engine refactor each driver expresses its figure as a grid
of independent :class:`~repro.analysis.runner.ExperimentSpec` cells executed
by an :class:`~repro.analysis.runner.ExperimentEngine`:

* ``parallelism`` fans the grid out over worker processes (default: one per
  CPU, or ``REPRO_PARALLELISM``);
* ``fast`` selects the compiled-graph fast path (default on): a fast cell
  reads only compiled-graph arrays, never an object graph.  The scalar
  implementations over task descriptors remain the reference — pass
  ``fast=False``, set ``REPRO_REFERENCE=1``, or use the CLI's
  ``--reference`` flag;
* generated task graphs are memoised per process keyed by
  (benchmark, scale, node count), so a graph is built once per run instead of
  once per policy x rate cell; each ``@cell_kind`` declares the keys its
  fast-path cells read, so a parallel map builds each missing graph once
  before it sends the cells.

Cell payloads are plain row dictionaries, so results are identical for any
parallelism and worker scheduling order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.runner import (
    ExperimentEngine,
    ExperimentSpec,
    GraphKey,
    benchmark_graph,
    benchmark_instance,
    cell_kind,
    compiled_sim_cache,
    derive_seed,
    make_spec,
)
from repro.apps.base import Benchmark
from repro.apps.linpack import LinpackBenchmark
from repro.apps.matmul import MatmulBenchmark
from repro.apps.nbody import NbodyBenchmark
from repro.apps.pingpong import PingpongBenchmark
from repro.apps.registry import (
    all_benchmark_names,
    distributed_benchmark_names,
    shared_memory_benchmark_names,
)
from repro.core.engine import ReplicationDecisions, decide_for_graph
from repro.core.estimator import ArgumentSizeEstimator
from repro.core.heuristic import AppFit, SelectionPolicy
from repro.core.knapsack import KnapsackOracle
from repro.core.policies import (
    CompleteReplication,
    RandomReplication,
    TopFitReplication,
)
from repro.core.vectorized import compiled_total_fits, decide_baseline, decide_for_compiled
from repro.faults.model import FailureModel
from repro.faults.rates import FitRateSpec
from repro.runtime.compiled import CompiledGraph
from repro.runtime.graph import TaskGraph
from repro.simulator.execution import SimulationConfig, simulate_graph
from repro.simulator.fastpath import SimGraphCache, simulate_compiled, simulate_compiled_batch
from repro.simulator.machine import MachineSpec, marenostrum_cluster, shared_memory_node
from repro.util.rng import RngStream
from repro.util.tables import TextTable

#: Alias used throughout: every experiment row is a flat dict.
ExperimentRow = Dict[str, object]


# ---------------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------------


def _engine(
    engine: Optional[ExperimentEngine],
    parallelism: Optional[int],
    fast: Optional[bool],
) -> ExperimentEngine:
    """The engine a driver uses: an explicit one, or one built from the knobs."""
    if engine is not None:
        return engine
    return ExperimentEngine(parallelism=parallelism, fast=fast)


def _machine_for(benchmark: Benchmark, cores_per_node: int = 16) -> MachineSpec:
    """The machine a benchmark is evaluated on (1 node shared / 64-node cluster)."""
    if benchmark.distributed:
        n_nodes = getattr(benchmark, "n_nodes", 64)
        return marenostrum_cluster(n_nodes=n_nodes, cores_per_node=cores_per_node)
    return shared_memory_node(cores=cores_per_node)


def _replica_seeds(base_seed: int, n_seeds: int) -> List[int]:
    """The fault seeds a cell replays: its own seed plus derived replicas.

    Replica seeds come from :func:`~repro.analysis.runner.derive_seed`, so they
    are stable across processes and independent of how cells are scheduled.
    """
    return [base_seed] + [derive_seed(base_seed, "replica", j) for j in range(1, n_seeds)]


def _seed_makespans(cache, graph, machine, config, seeds, fast) -> List[float]:
    """Per-seed makespans of one cell simulation, one entry per fault seed.

    The fast path replays every seed as one batch over the shared replay
    arrays (:func:`simulate_compiled_batch`); the reference path loops the
    scalar simulator.  Both run seed ``s`` with ``replace(config, seed=s)``,
    so lane ``j`` is bit-identical to the corresponding single-seed run.
    """
    if fast:
        sims = simulate_compiled_batch(cache, machine, config, seeds=seeds)
    else:
        sims = [simulate_graph(graph, machine, replace(config, seed=s)) for s in seeds]
    return [sim.makespan_s for sim in sims]


def _registry_graph(spec: ExperimentSpec) -> List[GraphKey]:
    """The graph a fast cell reads: its benchmark at registry placement.

    Reference-path cells read no compiled graph, so they declare none.
    """
    return [(spec.benchmark, spec.scale, None)] if spec.fast else []


def _mean(values: Sequence[float]) -> float:
    """Arithmetic mean; exact pass-through for a single value (0 + x == x)."""
    return sum(values) / len(values)


def _appfit_threshold(graph: TaskGraph, rate_spec: FitRateSpec) -> float:
    """The benchmark's current (1x) FIT — the Figure 3 threshold.

    This is the unprotected application FIT the runtime's own bookkeeping
    reports at today's error rates: footnote 3 of the paper omits the
    per-benchmark thresholds, so the reproduction holds each benchmark to
    the FIT it has today (:mod:`repro.analysis.report`).  Dividing the
    exascale rates by the multiplier (the paper's framing) is numerically
    identical.
    """
    return FailureModel(rate_spec.at_todays_rates()).graph_total_fit(graph)


def _appfit_threshold_compiled(compiled: CompiledGraph, rate_spec: FitRateSpec) -> float:
    """:func:`_appfit_threshold` over a compiled graph's argument-byte array.

    Same per-byte rates, the same per-task arithmetic and the same
    left-to-right float summation as the scalar path, so both return the
    identical float.
    """
    model = FailureModel(rate_spec.at_todays_rates())
    return sum(model.fit_array_for_bytes(compiled.arg_bytes).tolist())


def _unprotected_fit(graph: TaskGraph, replicated_ids, rate_spec: FitRateSpec) -> float:
    """Summed FIT of the tasks left unprotected, under ``rate_spec``."""
    model = FailureModel(rate_spec)
    return sum(
        model.task_total_fit(t) for t in graph.tasks() if t.task_id not in replicated_ids
    )


def _distributed_benchmark(name: str, n_nodes: int, scale: float) -> Benchmark:
    """Build a distributed benchmark for a specific node count (Figure 6)."""
    if name == "nbody":
        return NbodyBenchmark(
            n_bodies=65536, n_nodes=n_nodes, timesteps=max(1, int(round(4 * scale)))
        )
    if name == "matmul":
        return MatmulBenchmark(
            iterations=max(1, int(round(35 * scale))), n_nodes=n_nodes
        )
    if name == "pingpong":
        return PingpongBenchmark(
            n_nodes=n_nodes, iterations=max(2, int(round(200 * scale)))
        )
    if name == "linpack":
        import math

        p = int(math.sqrt(n_nodes))
        while p > 1 and n_nodes % p:
            p -= 1
        n_panels = max(8, int(round(512 * scale)))
        return LinpackBenchmark(
            matrix_size=n_panels * 256, block_size=256, grid_rows=p, grid_cols=n_nodes // p
        )
    raise KeyError(f"{name!r} is not a distributed benchmark")


def _appfit_decisions(
    graph: TaskGraph,
    threshold: float,
    estimator: ArgumentSizeEstimator,
    residual_fit_factor: float,
) -> ReplicationDecisions:
    """App_FIT over a whole graph, the scalar reference (with its audit)."""
    policy = AppFit(
        threshold=threshold,
        total_tasks=len(graph),
        estimator=estimator,
        residual_fit_factor=residual_fit_factor,
    )
    decisions = decide_for_graph(graph, policy)
    decisions.audit = policy.audit()
    return decisions


# ---------------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------------


@dataclass
class Table1Result:
    """Reproduction of Table I: the benchmark inventory."""

    rows: List[ExperimentRow] = field(default_factory=list)

    def render(self) -> str:
        """Plain-text Table I."""
        table = TextTable(
            ["benchmark", "description", "problem", "block", "group", "tasks", "input MiB"],
            title="Table I — task-parallel benchmarks",
        )
        for row in self.rows:
            table.add_row(
                row["benchmark"],
                row["description"],
                row["problem"],
                row["block"],
                "distributed" if row["distributed"] else "shared-memory",
                row["n_tasks"],
                row["input_mib"],
            )
        return table.render()


@cell_kind("table1_row", graphs=_registry_graph)
def _table1_row(spec: ExperimentSpec) -> ExperimentRow:
    """One Table I row: the benchmark's inventory facts.

    On the fast path the task count comes from the compiled-graph cache, so a
    warm cache regenerates Table I without building a single task graph; the
    reference path builds the graph and counts it, as before.
    """
    bench = benchmark_instance(spec.benchmark, spec.scale)
    if spec.fast:
        info = bench.info(n_tasks=compiled_sim_cache(spec.benchmark, spec.scale).n)
    else:
        info = bench.info()
    return {
        "benchmark": info.name,
        "description": info.description,
        "problem": info.problem,
        "block": info.block,
        "distributed": info.distributed,
        "n_tasks": info.n_tasks,
        "input_mib": info.input_mib,
    }


def table1_benchmark_inventory(
    scale: float = 1.0,
    benchmarks: Optional[Sequence[str]] = None,
    engine: Optional[ExperimentEngine] = None,
    parallelism: Optional[int] = None,
    fast: Optional[bool] = None,
) -> Table1Result:
    """Regenerate Table I (benchmark descriptions, sizes, blocks, task counts)."""
    names = list(benchmarks) if benchmarks is not None else all_benchmark_names()
    eng = _engine(engine, parallelism, fast)
    specs = [make_spec("table1_row", name, scale, fast=eng.fast) for name in names]
    return Table1Result(rows=eng.map(specs))


# ---------------------------------------------------------------------------------
# Figure 3 — App_FIT selective replication
# ---------------------------------------------------------------------------------


@dataclass
class Figure3Result:
    """Reproduction of Figure 3: App_FIT replication percentages."""

    multipliers: Tuple[float, ...]
    rows: List[ExperimentRow] = field(default_factory=list)
    averages: Dict[float, Dict[str, float]] = field(default_factory=dict)

    def rows_for(self, multiplier: float) -> List[ExperimentRow]:
        """Rows of one error-rate multiplier."""
        return [r for r in self.rows if r["multiplier"] == multiplier]

    def render(self) -> str:
        """Plain-text Figure 3 (per-benchmark replication percentages)."""
        table = TextTable(
            [
                "benchmark",
                "rate",
                "% tasks replicated",
                "% computation time replicated",
                "threshold (FIT)",
                "achieved (FIT)",
                "threshold respected",
            ],
            title="Figure 3 — App_FIT selective replication",
        )
        for row in self.rows:
            table.add_row(
                row["benchmark"],
                f"{row['multiplier']:.0f}x",
                100.0 * row["task_fraction"],
                100.0 * row["time_fraction"],
                row["threshold_fit"],
                row["achieved_fit"],
                row["threshold_respected"],
            )
        lines = [table.render(), ""]
        for mult, avg in self.averages.items():
            lines.append(
                f"average @ {mult:.0f}x rates: "
                f"{100.0 * avg['task_fraction']:.1f}% of tasks replicated, "
                f"{100.0 * avg['time_fraction']:.1f}% of computation time replicated"
            )
        return "\n".join(lines)


@cell_kind("fig3_cell", graphs=_registry_graph)
def _fig3_cell(spec: ExperimentSpec) -> ExperimentRow:
    """One Figure 3 cell: App_FIT on one benchmark at one rate multiplier.

    The fast path works entirely from the compiled graph (threshold and
    decisions from the stored byte/duration arrays); the reference path walks
    the task descriptors.  Both produce bit-identical rows.
    """
    rate_spec: FitRateSpec = spec.param("rate_spec") or FitRateSpec()
    multiplier: float = spec.param("multiplier")
    residual: float = spec.param("residual_fit_factor", 0.0)
    estimator = ArgumentSizeEstimator(rate_spec.scaled(multiplier))
    if spec.fast:
        compiled = compiled_sim_cache(spec.benchmark, spec.scale).compiled
        threshold = _appfit_threshold_compiled(compiled, rate_spec)
        decisions = decide_for_compiled(
            compiled, threshold, estimator, residual_fit_factor=residual
        )
    else:
        graph = benchmark_graph(spec.benchmark, spec.scale)
        threshold = _appfit_threshold(graph, rate_spec)
        decisions = _appfit_decisions(graph, threshold, estimator, residual)
    audit = decisions.audit
    return {
        "benchmark": spec.benchmark,
        "multiplier": multiplier,
        "n_tasks": decisions.total_tasks,
        "task_fraction": decisions.task_fraction,
        "time_fraction": decisions.time_fraction,
        "threshold_fit": threshold,
        "achieved_fit": audit.current_fit,
        "threshold_respected": audit.threshold_respected,
        "envelope_respected": audit.envelope_respected,
    }


def figure3_appfit(
    scale: float = 1.0,
    multipliers: Sequence[float] = (10.0, 5.0),
    rate_spec: Optional[FitRateSpec] = None,
    residual_fit_factor: float = 0.0,
    benchmarks: Optional[Sequence[str]] = None,
    engine: Optional[ExperimentEngine] = None,
    parallelism: Optional[int] = None,
    fast: Optional[bool] = None,
) -> Figure3Result:
    """Run App_FIT on every benchmark at the given exascale rate multipliers.

    The threshold of each benchmark is its current (1x) FIT, so the heuristic
    must absorb the rate increase — the paper's Figure 3 scenario.
    """
    spec = rate_spec if rate_spec is not None else FitRateSpec()
    names = list(benchmarks) if benchmarks is not None else all_benchmark_names()
    eng = _engine(engine, parallelism, fast)
    specs = [
        make_spec(
            "fig3_cell",
            name,
            scale,
            fast=eng.fast,
            multiplier=mult,
            rate_spec=spec,
            residual_fit_factor=residual_fit_factor,
        )
        for name in names
        for mult in multipliers
    ]
    result = Figure3Result(multipliers=tuple(multipliers), rows=eng.map(specs))
    for mult in multipliers:
        rows = result.rows_for(mult)
        if rows:
            result.averages[mult] = {
                "task_fraction": sum(r["task_fraction"] for r in rows) / len(rows),
                "time_fraction": sum(r["time_fraction"] for r in rows) / len(rows),
            }
        else:
            result.averages[mult] = {"task_fraction": 0.0, "time_fraction": 0.0}
    return result


# ---------------------------------------------------------------------------------
# Figure 4 — task replication overheads
# ---------------------------------------------------------------------------------


@dataclass
class Figure4Result:
    """Reproduction of Figure 4: fault-free overhead of complete replication."""

    rows: List[ExperimentRow] = field(default_factory=list)

    @property
    def average_overhead_percent(self) -> float:
        """Unweighted average overhead across benchmarks."""
        if not self.rows:
            return 0.0
        return sum(r["overhead_percent"] for r in self.rows) / len(self.rows)

    def render(self) -> str:
        """Plain-text Figure 4."""
        table = TextTable(
            ["benchmark", "baseline makespan (s)", "replicated makespan (s)", "overhead %"],
            title="Figure 4 — complete task replication overheads (fault-free)",
        )
        for row in self.rows:
            table.add_row(
                row["benchmark"],
                row["baseline_makespan_s"],
                row["replicated_makespan_s"],
                row["overhead_percent"],
            )
        return table.render() + f"\n\naverage overhead: {self.average_overhead_percent:.2f}%"


@cell_kind("fig4_row", graphs=_registry_graph)
def _fig4_row(spec: ExperimentSpec) -> ExperimentRow:
    """One Figure 4 row: simulate one benchmark bare and fully replicated.

    The fast path replays the compiled graph (no task objects are built when
    the compiled-graph cache is warm); the reference path simulates the real
    graph with the readable event loop.
    """
    cores_per_node: int = spec.param("cores_per_node", 16)
    bench = benchmark_instance(spec.benchmark, spec.scale)
    machine = _machine_for(bench, cores_per_node)
    if spec.fast:
        cache = compiled_sim_cache(spec.benchmark, spec.scale)
        baseline = simulate_compiled(
            cache, machine, SimulationConfig(collect_records=False)
        )
        replicated = simulate_compiled(
            cache,
            machine,
            SimulationConfig(replicate_all=True, collect_records=False),
        )
    else:
        graph = bench.build_graph()
        baseline = simulate_graph(graph, machine, SimulationConfig())
        replicated = simulate_graph(graph, machine, SimulationConfig(replicate_all=True))
    return {
        "benchmark": spec.benchmark,
        "baseline_makespan_s": baseline.makespan_s,
        "replicated_makespan_s": replicated.makespan_s,
        "overhead_percent": 100.0 * replicated.overhead_vs(baseline),
    }


def figure4_overheads(
    scale: float = 1.0,
    benchmarks: Optional[Sequence[str]] = None,
    cores_per_node: int = 16,
    engine: Optional[ExperimentEngine] = None,
    parallelism: Optional[int] = None,
    fast: Optional[bool] = None,
) -> Figure4Result:
    """Fault-free makespan overhead of complete replication vs no replication."""
    names = list(benchmarks) if benchmarks is not None else all_benchmark_names()
    eng = _engine(engine, parallelism, fast)
    specs = [
        make_spec("fig4_row", name, scale, fast=eng.fast, cores_per_node=cores_per_node)
        for name in names
    ]
    return Figure4Result(rows=eng.map(specs))


# ---------------------------------------------------------------------------------
# Figures 5 & 6 — scalability of complete replication
# ---------------------------------------------------------------------------------


@dataclass
class ScalabilityResult:
    """Speedup curves of complete replication under fixed per-task fault rates."""

    title: str
    x_label: str
    rows: List[ExperimentRow] = field(default_factory=list)

    def curve(self, benchmark: str, fault_rate: float) -> List[ExperimentRow]:
        """The rows of one benchmark/fault-rate curve, ordered by x."""
        rows = [
            r for r in self.rows if r["benchmark"] == benchmark and r["fault_rate"] == fault_rate
        ]
        return sorted(rows, key=lambda r: r["x"])

    def render(self) -> str:
        """Plain-text speedup table (one row per benchmark/fault-rate/point)."""
        table = TextTable(
            ["benchmark", "fault rate", self.x_label, "makespan (s)", "speedup"],
            title=self.title,
        )
        for row in sorted(self.rows, key=lambda r: (r["benchmark"], r["fault_rate"], r["x"])):
            table.add_row(
                row["benchmark"],
                row["fault_rate"],
                row["x"],
                row["makespan_s"],
                row["speedup"],
            )
        return table.render()


def _speedup_rows(
    benchmark: str, fault_rate: float, x_points: Sequence[int], makespans: Sequence[float]
) -> List[ExperimentRow]:
    """Rows of one speedup curve, referenced to its first point."""
    ref = makespans[0]
    return [
        {
            "benchmark": benchmark,
            "fault_rate": fault_rate,
            "x": x,
            "makespan_s": makespan,
            "speedup": ref / makespan if makespan > 0 else 0.0,
        }
        for x, makespan in zip(x_points, makespans)
    ]


@cell_kind("fig5_curve", graphs=_registry_graph)
def _fig5_curve(spec: ExperimentSpec) -> List[ExperimentRow]:
    """One Figure 5 curve: a core-count sweep at one fixed fault rate."""
    fault_rate: float = spec.param("fault_rate")
    core_counts: Sequence[int] = spec.param("core_counts")
    seeds = _replica_seeds(spec.seed, spec.param("n_seeds", 1))
    cache = graph = None
    if spec.fast:
        cache = compiled_sim_cache(spec.benchmark, spec.scale)
    else:
        graph = benchmark_graph(spec.benchmark, spec.scale)
    makespans: List[float] = []
    for cores in core_counts:
        machine = shared_memory_node(cores=cores)
        config = SimulationConfig(
            replicate_all=True,
            crash_probability=fault_rate,
            seed=spec.seed,
            collect_records=not spec.fast,
        )
        makespans.append(_mean(_seed_makespans(cache, graph, machine, config, seeds, spec.fast)))
    return _speedup_rows(spec.benchmark, fault_rate, list(core_counts), makespans)


def figure5_scalability_shared(
    scale: float = 1.0,
    core_counts: Sequence[int] = (1, 2, 4, 8, 16),
    fault_rates: Sequence[float] = (0.0, 0.01, 0.05),
    benchmarks: Optional[Sequence[str]] = None,
    seed: int = 0,
    n_seeds: int = 1,
    engine: Optional[ExperimentEngine] = None,
    parallelism: Optional[int] = None,
    fast: Optional[bool] = None,
) -> ScalabilityResult:
    """Speedup over 1 core of complete replication for the shared-memory group.

    ``n_seeds > 1`` averages each makespan over that many fault seeds (the
    cell's own seed plus derived replicas); the fast path replays them as one
    batch.  The default of 1 reproduces the single-seed tables exactly.
    """
    names = (
        list(benchmarks) if benchmarks is not None else shared_memory_benchmark_names()
    )
    eng = _engine(engine, parallelism, fast)
    specs = [
        make_spec(
            "fig5_curve",
            name,
            scale,
            seed=seed,
            fast=eng.fast,
            core_counts=tuple(core_counts),
            fault_rate=rate,
            n_seeds=n_seeds,
        )
        for name in names
        for rate in fault_rates
    ]
    result = ScalabilityResult(
        title="Figure 5 — complete replication scalability (shared memory)",
        x_label="cores",
    )
    for rows in eng.map(specs):
        result.rows.extend(rows)
    return result


def _fig6_graphs(spec: ExperimentSpec) -> List[GraphKey]:
    """One graph per node count of a fast Figure 6 curve."""
    if not spec.fast:
        return []
    return [(spec.benchmark, spec.scale, n) for n in spec.param("node_counts")]


@cell_kind("fig6_curve", graphs=_fig6_graphs)
def _fig6_curve(spec: ExperimentSpec) -> List[ExperimentRow]:
    """One Figure 6 curve: a node-count sweep at one fixed fault rate."""
    fault_rate: float = spec.param("fault_rate")
    node_counts: Sequence[int] = spec.param("node_counts")
    cores_per_node: int = spec.param("cores_per_node", 16)
    seeds = _replica_seeds(spec.seed, spec.param("n_seeds", 1))
    makespans: List[float] = []
    core_points: List[int] = []
    for n_nodes in node_counts:
        machine = marenostrum_cluster(n_nodes=n_nodes, cores_per_node=cores_per_node)
        config = SimulationConfig(
            replicate_all=True,
            crash_probability=fault_rate,
            seed=spec.seed,
            collect_records=not spec.fast,
        )
        cache = graph = None
        if spec.fast:
            cache = compiled_sim_cache(spec.benchmark, spec.scale, n_nodes)
        else:
            graph = benchmark_graph(spec.benchmark, spec.scale, n_nodes)
        makespans.append(_mean(_seed_makespans(cache, graph, machine, config, seeds, spec.fast)))
        core_points.append(n_nodes * cores_per_node)
    return _speedup_rows(spec.benchmark, fault_rate, core_points, makespans)


def figure6_scalability_distributed(
    scale: float = 1.0,
    node_counts: Sequence[int] = (4, 16, 64),
    cores_per_node: int = 16,
    fault_rates: Sequence[float] = (0.0, 0.01, 0.05),
    benchmarks: Optional[Sequence[str]] = None,
    seed: int = 0,
    n_seeds: int = 1,
    engine: Optional[ExperimentEngine] = None,
    parallelism: Optional[int] = None,
    fast: Optional[bool] = None,
) -> ScalabilityResult:
    """Speedup over the smallest configuration (64 cores in the paper) for the
    distributed group, with complete replication and fixed per-task fault rates.

    ``n_seeds > 1`` averages each makespan over that many fault seeds, batched
    on the fast path; the default of 1 reproduces the single-seed tables."""
    names = (
        list(benchmarks) if benchmarks is not None else distributed_benchmark_names()
    )
    eng = _engine(engine, parallelism, fast)
    specs = [
        make_spec(
            "fig6_curve",
            name,
            scale,
            seed=seed,
            fast=eng.fast,
            node_counts=tuple(node_counts),
            cores_per_node=cores_per_node,
            fault_rate=rate,
            n_seeds=n_seeds,
        )
        for name in names
        for rate in fault_rates
    ]
    result = ScalabilityResult(
        title="Figure 6 — complete replication scalability (distributed)",
        x_label="cores",
    )
    for rows in eng.map(specs):
        result.rows.extend(rows)
    return result


# ---------------------------------------------------------------------------------
# Ablations (beyond the paper)
# ---------------------------------------------------------------------------------


@dataclass
class AblationPoliciesResult:
    """App_FIT versus offline/naive selection policies at the same threshold."""

    rows: List[ExperimentRow] = field(default_factory=list)

    def render(self) -> str:
        """Plain-text policy comparison."""
        table = TextTable(
            [
                "benchmark",
                "policy",
                "% tasks replicated",
                "% time replicated",
                "unprotected FIT",
                "meets threshold",
            ],
            title="Ablation — selection policies at the 10x exascale threshold",
        )
        for row in self.rows:
            table.add_row(
                row["benchmark"],
                row["policy"],
                100.0 * row["task_fraction"],
                100.0 * row["time_fraction"],
                row["unprotected_fit"],
                row["meets_threshold"],
            )
        return table.render()


#: One policy's selection in a cell: (replicated ids, task fraction, time
#: fraction, unprotected FIT).
PolicySelection = Tuple[Set[int], float, float, float]


def _baseline_policy(
    name: str, budget: Optional[float], estimator: ArgumentSizeEstimator, seed: int
) -> SelectionPolicy:
    """The descriptor policy of one baseline: the reference of :func:`decide_baseline`."""
    if name == "top_fit":
        return TopFitReplication(budget, estimator)
    if name == "random":
        return RandomReplication(budget, rng=RngStream(seed))
    if name == "complete":
        return CompleteReplication()
    raise KeyError(f"unknown sweep policy {name!r}; known: {SWEEP_POLICIES}")


def _select(
    spec: ExperimentSpec,
    policies: Sequence[str],
    cache: Optional[SimGraphCache] = None,
) -> Tuple[int, float, Dict[str, PolicySelection]]:
    """``(n_tasks, threshold, {policy: selection})`` of one selection cell.

    The one selection step of the policies ablation, ``repro sweep`` and the
    workload sweep.  It picks its path once: a fast cell reads only its
    compiled graph (``cache``, else :func:`compiled_sim_cache`) through the
    array forms of :mod:`repro.core.vectorized` and
    :meth:`KnapsackOracle.solve_arrays`; a reference cell walks the task
    descriptors with the policy classes.  Both return bit-identical
    selections.  The budget-bounded baselines (``top_fit``, ``random``) reuse
    App_FIT's replica budget (its task fraction), so comparisons isolate
    *selection quality* from budget size; App_FIT is decided only when a
    requested policy needs it.
    """
    rate_spec: FitRateSpec = spec.param("rate_spec") or FitRateSpec()
    residual: float = spec.param("residual_fit_factor", 0.0)
    scaled_spec = rate_spec.scaled(spec.param("multiplier"))
    estimator = ArgumentSizeEstimator(scaled_spec)
    if spec.fast:
        if cache is None:
            cache = compiled_sim_cache(spec.benchmark, spec.scale)
        compiled = cache.compiled
        n_tasks, threshold = compiled.n, _appfit_threshold_compiled(compiled, rate_spec)
        ids, durations = compiled.task_ids.tolist(), compiled.durations.tolist()
        fits = compiled_total_fits(estimator, compiled)
        fit_list = fits.tolist()

        def app_fit():
            return decide_for_compiled(compiled, threshold, estimator, residual)

        def baseline(name, budget):
            return decide_baseline(name, ids, fits, durations, budget, spec.seed)

        def solve(oracle):
            return oracle.solve_arrays(ids, fit_list, durations)

        def unprotected(chosen):
            return sum(fit for tid, fit in zip(ids, fit_list) if tid not in chosen)

    else:
        graph = benchmark_graph(spec.benchmark, spec.scale)
        n_tasks, threshold = len(graph), _appfit_threshold(graph, rate_spec)

        def app_fit():
            return _appfit_decisions(graph, threshold, estimator, residual)

        def baseline(name, budget):
            return decide_for_graph(graph, _baseline_policy(name, budget, estimator, spec.seed))

        def solve(oracle):
            return oracle.solve(graph.tasks())

        def unprotected(chosen):
            return _unprotected_fit(graph, chosen, scaled_spec)

    appfit_dec = app_fit() if {"app_fit", "top_fit", "random"} & set(policies) else None
    budget = appfit_dec.task_fraction if appfit_dec else None
    selections: Dict[str, PolicySelection] = {}
    for name in policies:
        if name == "knapsack_oracle":
            sol = solve(KnapsackOracle(threshold, estimator))
            chosen = (
                sol.replicate_ids,
                sol.replication_task_fraction,
                sol.replication_time_fraction,
            )
        else:
            dec = appfit_dec if name == "app_fit" else baseline(name, budget)
            chosen = (dec.replicated_ids, dec.task_fraction, dec.time_fraction)
        selections[name] = chosen + (unprotected(chosen[0]),)
    return n_tasks, threshold, selections


@cell_kind("ablation_policies_cell", graphs=_registry_graph)
def _ablation_policies_cell(spec: ExperimentSpec) -> List[ExperimentRow]:
    """All five selection policies on one benchmark (one cached cell).

    The policies share the App_FIT decision (its task fraction is the replica
    budget of the FIT-oblivious baselines) and the per-task FIT estimates, so
    the whole benchmark is one cell rather than five.  The selection is
    :func:`_select`'s, so a fast cell reads only the compiled graph.
    """
    _, threshold, selections = _select(
        spec, ("app_fit", "knapsack_oracle", "random", "top_fit", "complete")
    )
    rows: List[ExperimentRow] = []
    for policy_name, (_, task_fraction, time_fraction, unprotected) in selections.items():
        rows.append(
            {
                "benchmark": spec.benchmark,
                "policy": policy_name,
                "task_fraction": task_fraction,
                "time_fraction": time_fraction,
                "unprotected_fit": unprotected,
                "threshold": threshold,
                "meets_threshold": unprotected <= threshold * (1 + 1e-9),
            }
        )
    return rows


def ablation_policies(
    scale: float = 1.0,
    multiplier: float = 10.0,
    benchmarks: Sequence[str] = ("cholesky", "stream", "linpack"),
    rate_spec: Optional[FitRateSpec] = None,
    seed: int = 13,
    engine: Optional[ExperimentEngine] = None,
    parallelism: Optional[int] = None,
    fast: Optional[bool] = None,
) -> AblationPoliciesResult:
    """Compare App_FIT with the knapsack oracle and FIT-oblivious baselines."""
    spec = rate_spec if rate_spec is not None else FitRateSpec()
    eng = _engine(engine, parallelism, fast)
    specs = [
        make_spec(
            "ablation_policies_cell",
            name,
            scale,
            seed=seed,
            fast=eng.fast,
            multiplier=multiplier,
            rate_spec=spec,
        )
        for name in benchmarks
    ]
    result = AblationPoliciesResult()
    for rows in eng.map(specs):
        result.rows.extend(rows)
    return result


@dataclass
class RateSweepResult:
    """Replication demanded by App_FIT as error rates grow."""

    benchmark: str
    rows: List[ExperimentRow] = field(default_factory=list)

    def render(self) -> str:
        """Plain-text rate sweep."""
        table = TextTable(
            ["rate multiplier", "residual FIT factor", "% tasks replicated", "% time replicated"],
            title=f"Ablation — error-rate sweep ({self.benchmark})",
        )
        for row in self.rows:
            table.add_row(
                row["multiplier"],
                row["residual_fit_factor"],
                100.0 * row["task_fraction"],
                100.0 * row["time_fraction"],
            )
        return table.render()


@cell_kind("rate_sweep_cell", graphs=_registry_graph)
def _rate_sweep_cell(spec: ExperimentSpec) -> ExperimentRow:
    """One rate-sweep cell: App_FIT demand at one (multiplier, residual) point."""
    rate_spec: FitRateSpec = spec.param("rate_spec") or FitRateSpec()
    multiplier: float = spec.param("multiplier")
    residual: float = spec.param("residual_fit_factor", 0.0)
    estimator = ArgumentSizeEstimator(rate_spec.scaled(multiplier))
    if spec.fast:
        compiled = compiled_sim_cache(spec.benchmark, spec.scale).compiled
        threshold = _appfit_threshold_compiled(compiled, rate_spec)
        decisions = decide_for_compiled(
            compiled, threshold, estimator, residual_fit_factor=residual
        )
    else:
        graph = benchmark_graph(spec.benchmark, spec.scale)
        threshold = _appfit_threshold(graph, rate_spec)
        decisions = _appfit_decisions(graph, threshold, estimator, residual)
    return {
        "multiplier": multiplier,
        "residual_fit_factor": residual,
        "task_fraction": decisions.task_fraction,
        "time_fraction": decisions.time_fraction,
    }


def ablation_rate_sweep(
    benchmark: str = "cholesky",
    scale: float = 1.0,
    multipliers: Sequence[float] = (1.0, 2.0, 5.0, 10.0, 20.0),
    residual_factors: Sequence[float] = (0.0, 0.1),
    rate_spec: Optional[FitRateSpec] = None,
    engine: Optional[ExperimentEngine] = None,
    parallelism: Optional[int] = None,
    fast: Optional[bool] = None,
) -> RateSweepResult:
    """Sweep the error-rate multiplier (and residual model) for one benchmark."""
    spec = rate_spec if rate_spec is not None else FitRateSpec()
    eng = _engine(engine, parallelism, fast)
    specs = [
        make_spec(
            "rate_sweep_cell",
            benchmark,
            scale,
            fast=eng.fast,
            multiplier=mult,
            residual_fit_factor=residual,
            rate_spec=spec,
        )
        for residual in residual_factors
        for mult in multipliers
    ]
    return RateSweepResult(benchmark=benchmark, rows=eng.map(specs))


# ---------------------------------------------------------------------------------
# Arbitrary benchmark x policy x rate sweeps (the `repro sweep` command)
# ---------------------------------------------------------------------------------

#: Replication-selection policies `repro sweep` can grid over.
SWEEP_POLICIES: Tuple[str, ...] = (
    "app_fit",
    "knapsack_oracle",
    "top_fit",
    "random",
    "complete",
)


@dataclass
class SweepResult:
    """An arbitrary benchmark x policy x rate-multiplier grid."""

    rows: List[ExperimentRow] = field(default_factory=list)

    def render(self) -> str:
        """Plain-text sweep table (one row per benchmark/policy/multiplier)."""
        table = TextTable(
            [
                "benchmark",
                "policy",
                "rate",
                "% tasks replicated",
                "% time replicated",
                "unprotected FIT",
                "meets threshold",
            ],
            title="Sweep — replication policies across benchmarks and error rates",
        )
        for row in sorted(
            self.rows, key=lambda r: (r["benchmark"], r["policy"], r["multiplier"])
        ):
            table.add_row(
                row["benchmark"],
                row["policy"],
                f"{row['multiplier']:g}x",
                100.0 * row["task_fraction"],
                100.0 * row["time_fraction"],
                row["unprotected_fit"],
                row["meets_threshold"],
            )
        return table.render()


@cell_kind("policy_cell", graphs=_registry_graph)
def _policy_cell(spec: ExperimentSpec) -> ExperimentRow:
    """One sweep cell: a named policy on one benchmark at one rate multiplier.

    The selection is :func:`_select`'s — the same as the policies ablation's,
    budget framing included — so a fast cell reads only the compiled graph.
    """
    policy_name: str = spec.param("policy")
    _, threshold, selections = _select(spec, (policy_name,))
    _, task_fraction, time_fraction, unprotected = selections[policy_name]
    return {
        "benchmark": spec.benchmark,
        "policy": policy_name,
        "multiplier": spec.param("multiplier"),
        "task_fraction": task_fraction,
        "time_fraction": time_fraction,
        "unprotected_fit": unprotected,
        "threshold": threshold,
        "meets_threshold": unprotected <= threshold * (1 + 1e-9),
    }


def sweep_policies(
    benchmarks: Sequence[str],
    policies: Sequence[str] = ("app_fit",),
    multipliers: Sequence[float] = (10.0,),
    scale: float = 1.0,
    seed: int = 13,
    rate_spec: Optional[FitRateSpec] = None,
    residual_fit_factor: float = 0.0,
    engine: Optional[ExperimentEngine] = None,
    parallelism: Optional[int] = None,
    fast: Optional[bool] = None,
) -> SweepResult:
    """Run an arbitrary benchmark x policy x rate grid on the engine.

    Each (benchmark, policy, multiplier) combination is one independent
    cached cell, so repeated sweeps over overlapping grids recompute only
    the new combinations.
    """
    spec = rate_spec if rate_spec is not None else FitRateSpec()
    for policy in policies:
        if policy not in SWEEP_POLICIES:
            raise KeyError(f"unknown sweep policy {policy!r}; known: {SWEEP_POLICIES}")
    eng = _engine(engine, parallelism, fast)
    specs = [
        make_spec(
            "policy_cell",
            name,
            scale,
            seed=seed,
            fast=eng.fast,
            policy=policy,
            multiplier=mult,
            rate_spec=spec,
            residual_fit_factor=residual_fit_factor,
        )
        for name in benchmarks
        for policy in policies
        for mult in multipliers
    ]
    return SweepResult(rows=eng.map(specs))


# ---------------------------------------------------------------------------------
# Synthetic-workload sweeps (the `repro sweep --workload` command)
# ---------------------------------------------------------------------------------


@dataclass
class WorkloadSweepResult:
    """A workload x policy x rate-multiplier x fault-rate grid.

    Unlike the Table I sweep, every workload cell also *simulates* the chosen
    replication set, so the rows pair the selection-quality numbers
    (fractions, unprotected FIT) with their runtime cost (makespan overhead
    versus the unreplicated baseline at the same fault rate).
    """

    rows: List[ExperimentRow] = field(default_factory=list)

    def render(self) -> str:
        """Plain-text workload sweep table."""
        table = TextTable(
            [
                "workload",
                "policy",
                "rate",
                "fault rate",
                "tasks",
                "% tasks repl",
                "% time repl",
                "unprotected FIT",
                "meets threshold",
                "baseline (s)",
                "selective (s)",
                "overhead %",
            ],
            title="Sweep — replication policies on synthetic workloads",
        )
        for row in sorted(
            self.rows,
            key=lambda r: (r["workload"], r["policy"], r["multiplier"], r["fault_rate"]),
        ):
            table.add_row(
                row["workload"],
                row["policy"],
                f"{row['multiplier']:g}x",
                row["fault_rate"],
                row["n_tasks"],
                100.0 * row["task_fraction"],
                100.0 * row["time_fraction"],
                row["unprotected_fit"],
                row["meets_threshold"],
                row["baseline_makespan_s"],
                row["selective_makespan_s"],
                row["overhead_percent"],
            )
        return table.render()


@cell_kind("workload_cell", graphs=_registry_graph)
def _workload_cell(spec: ExperimentSpec) -> ExperimentRow:
    """One workload sweep cell: selection + simulation on a synthetic graph.

    ``spec.benchmark`` carries the *canonical* workload spec string (see
    :mod:`repro.workloads.spec`), so the results-store hash and the
    compiled-graph content address both cover the full workload identity —
    family, every parameter, seed, and (for traces) the file digest.

    The selection is :func:`_select`'s, given the cell's one compiled graph,
    and the replays run on that graph too, so a fast cell reads nothing else;
    a reference cell walks the descriptors and the scalar simulator.  Fast
    and reference rows are bit-identical.
    """
    policy_name: str = spec.param("policy")
    fault_rate: float = spec.param("fault_rate", 0.0)
    seeds = _replica_seeds(spec.seed, spec.param("n_seeds", 1))
    machine = shared_memory_node(cores=spec.param("cores", 16))

    cache = graph = None
    if spec.fast:
        cache = compiled_sim_cache(spec.benchmark, spec.scale)
    else:
        graph = benchmark_graph(spec.benchmark, spec.scale)
    n_tasks, threshold, selections = _select(spec, (policy_name,), cache)
    replicated_ids, task_fraction, time_fraction, unprotected = selections[policy_name]
    config = SimulationConfig(
        crash_probability=fault_rate, seed=spec.seed, collect_records=not spec.fast
    )
    baseline_s = _mean(_seed_makespans(cache, graph, machine, config, seeds, spec.fast))
    selective_s = _mean(
        _seed_makespans(
            cache,
            graph,
            machine,
            replace(config, replicated_ids=replicated_ids),
            seeds,
            spec.fast,
        )
    )
    overhead = (selective_s - baseline_s) / baseline_s if baseline_s > 0 else 0.0
    return {
        "workload": spec.benchmark,
        "policy": policy_name,
        "multiplier": spec.param("multiplier"),
        "fault_rate": fault_rate,
        "n_tasks": n_tasks,
        "task_fraction": task_fraction,
        "time_fraction": time_fraction,
        "unprotected_fit": unprotected,
        "threshold": threshold,
        "meets_threshold": unprotected <= threshold * (1 + 1e-9),
        "baseline_makespan_s": baseline_s,
        "selective_makespan_s": selective_s,
        "overhead_percent": 100.0 * overhead,
    }


def workload_sweep(
    workloads: Sequence[str],
    policies: Sequence[str] = ("app_fit",),
    multipliers: Sequence[float] = (10.0, 5.0),
    fault_rates: Sequence[float] = (0.0, 0.01),
    scale: float = 1.0,
    seed: int = 0,
    n_seeds: int = 1,
    rate_spec: Optional[FitRateSpec] = None,
    residual_fit_factor: float = 0.0,
    cores: int = 16,
    engine: Optional[ExperimentEngine] = None,
    parallelism: Optional[int] = None,
    fast: Optional[bool] = None,
) -> WorkloadSweepResult:
    """Sweep replication policies x error rates x fault rates over workloads.

    ``workloads`` are spec strings (``layered:depth=12,width=8,seed=7``; see
    :mod:`repro.workloads.spec` for the grammar) and are canonicalised here,
    so differently spelled but identical specs share cells — each (workload,
    policy, multiplier, fault rate) combination is one independently cached
    cell, exactly like the Table I sweep.
    """
    from repro.workloads.spec import parse_workload

    spec = rate_spec if rate_spec is not None else FitRateSpec()
    for policy in policies:
        if policy not in SWEEP_POLICIES:
            raise KeyError(f"unknown sweep policy {policy!r}; known: {SWEEP_POLICIES}")
    canonical = [parse_workload(w).canonical for w in workloads]
    eng = _engine(engine, parallelism, fast)
    specs = [
        make_spec(
            "workload_cell",
            name,
            scale,
            seed=seed,
            fast=eng.fast,
            policy=policy,
            multiplier=mult,
            fault_rate=rate,
            rate_spec=spec,
            residual_fit_factor=residual_fit_factor,
            cores=cores,
            n_seeds=n_seeds,
        )
        for name in canonical
        for policy in policies
        for mult in multipliers
        for rate in fault_rates
    ]
    return WorkloadSweepResult(rows=eng.map(specs))


# ---------------------------------------------------------------------------------
# Quickstart helper
# ---------------------------------------------------------------------------------


def appfit_single_benchmark(
    benchmark_name: str = "cholesky",
    multiplier: float = 10.0,
    scale: float = 0.25,
) -> str:
    """One-benchmark App_FIT summary used by the README quickstart."""
    fig3 = figure3_appfit(scale=scale, multipliers=(multiplier,), benchmarks=(benchmark_name,))
    row = fig3.rows[0]
    lines = [
        f"benchmark            : {row['benchmark']} (scale {scale})",
        f"error-rate multiplier: {multiplier:.0f}x",
        f"tasks                : {row['n_tasks']}",
        f"tasks replicated     : {100.0 * row['task_fraction']:.1f}%",
        f"time replicated      : {100.0 * row['time_fraction']:.1f}%",
        f"FIT threshold        : {row['threshold_fit']:.4f}",
        f"FIT achieved         : {row['achieved_fit']:.4f}",
        f"threshold respected  : {row['threshold_respected']}",
    ]
    return "\n".join(lines)
