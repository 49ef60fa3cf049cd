"""Common machinery for benchmark task-graph generators."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

from repro.runtime.graph import TaskGraph
from repro.runtime.runtime import TaskRuntime
from repro.util.units import bytes_to_mib


@dataclass(frozen=True)
class BenchmarkInfo:
    """A Table I row: what the benchmark computes and how it is blocked."""

    name: str
    description: str
    problem: str
    block: str
    distributed: bool
    input_bytes: float
    n_tasks: int

    @property
    def input_mib(self) -> float:
        """Benchmark input size in MiB (the basis of the application FIT)."""
        return bytes_to_mib(self.input_bytes)


class Benchmark(abc.ABC):
    """Base class of all Table I benchmark generators.

    Subclasses configure themselves with Table I problem/block sizes by default
    (``scale=1.0``); a smaller scale shrinks the problem while preserving the
    task structure, which is what the unit tests and the quick benchmark
    presets use.
    """

    #: Registry name, e.g. ``"cholesky"``.
    name: str = "benchmark"
    #: Human-readable description for the Table I reproduction.
    description: str = ""
    #: Whether the benchmark belongs to the distributed group of Table I.
    distributed: bool = False

    def __init__(self) -> None:
        self._graph_cache: Optional[TaskGraph] = None

    # -- to be provided by subclasses ---------------------------------------------

    @abc.abstractmethod
    def _build(self, runtime: TaskRuntime) -> None:
        """Submit every task of the benchmark into ``runtime``."""

    @property
    @abc.abstractmethod
    def input_bytes(self) -> float:
        """Size of the benchmark's input data (Section IV-A's benchmark FIT basis)."""

    @property
    @abc.abstractmethod
    def problem_label(self) -> str:
        """Human-readable problem size (Table I's middle column)."""

    @property
    @abc.abstractmethod
    def block_label(self) -> str:
        """Human-readable block size (Table I's right column)."""

    # -- shared behaviour ------------------------------------------------------------

    def build_graph(self, use_cache: bool = True) -> TaskGraph:
        """Generate the benchmark's task graph (cached after the first call)."""
        if use_cache and self._graph_cache is not None:
            return self._graph_cache
        runtime = TaskRuntime(n_workers=1, config=None)
        runtime.config.graph_name = self.name
        runtime.config.record_submissions = False
        self._build(runtime)
        graph = runtime.graph
        if use_cache:
            self._graph_cache = graph
        return graph

    def info(self, n_tasks: Optional[int] = None) -> BenchmarkInfo:
        """The benchmark's Table I row, with the generated task count.

        ``n_tasks`` lets a caller that already knows the count (e.g. from a
        compiled graph) skip generating the task graph.
        """
        if n_tasks is None:
            n_tasks = len(self.build_graph())
        return BenchmarkInfo(
            name=self.name,
            description=self.description,
            problem=self.problem_label,
            block=self.block_label,
            distributed=self.distributed,
            input_bytes=self.input_bytes,
            n_tasks=n_tasks,
        )

    def functional_runtime(self, n_workers: int = 2, hook=None) -> TaskRuntime:
        """The :class:`TaskRuntime` a functional variant executes on.

        ``n_workers`` is a free performance knob: functional results are
        worker-count independent by construction.  The runtime's executor
        pre-decides replication in submission order (``prepare_graph``), the
        fault injector draws from streams keyed by ``(root_seed, task_id,
        execution_index)``, and the replication protocol snapshots/restores
        only the byte regions a task declares — so neither the injected-fault
        multiset nor the recovered arrays depend on thread scheduling.
        """
        return TaskRuntime(n_workers=n_workers, hook=hook)

    def functional_run(self, n_workers: int = 2, hook=None):
        """Execute a scaled-down functional variant through the runtime.

        Only the shared-memory benchmarks provide functional variants; the
        distributed ones are simulation-only: the paper runs them with MPI on
        up to 64 nodes, and here that cluster exists only as the simulated
        substrate of :mod:`repro.distributed` (``docs/architecture.md``,
        "Layer map").
        """
        raise NotImplementedError(
            f"benchmark {self.name!r} does not provide a functional variant"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.problem_label}, block {self.block_label})"
