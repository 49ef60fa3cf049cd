"""The :class:`TaskRuntime` facade — the OmpSs-like programming interface.

Application code (the examples and the functional benchmark kernels) uses this
class the way an OmpSs program uses ``#pragma omp task``:

.. code-block:: python

    rt = TaskRuntime(n_workers=4)
    a = rt.register_array("A", np.zeros(1024))
    rt.submit(increment, inout=[a.whole()], task_type="inc")
    rt.submit(increment, inout=[a.whole()], task_type="inc")
    result = rt.taskwait()          # builds, runs and waits for the graph

Dependencies are inferred automatically from the ``in``/``out``/``inout``
regions, the selective-replication engine plugs in as an execution hook, and
the produced :class:`~repro.runtime.graph.TaskGraph` can alternatively be fed
to the machine simulator instead of being executed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.runtime.dependencies import DependencyTracker
from repro.runtime.events import EventKind, EventLog
from repro.runtime.executor import ExecutionResult, GraphExecutor, TaskExecutionHook
from repro.runtime.graph import TaskGraph
from repro.runtime.scheduler import SchedulingPolicy
from repro.runtime.task import (
    DataHandle,
    DataRegion,
    Direction,
    TaskArgument,
    TaskDescriptor,
)
from repro.util.validation import check_positive_int


class _ArgNames(dict):
    """Argument names ``<prefix>0``, ``<prefix>1``, ...: each made once, not
    once per submitted task."""

    def __init__(self, prefix: str) -> None:
        super().__init__()
        self.prefix = prefix

    def __missing__(self, i: int) -> str:
        name = self[i] = f"{self.prefix}{i}"
        return name


_IN_NAMES = _ArgNames("in")
_OUT_NAMES = _ArgNames("out")
_INOUT_NAMES = _ArgNames("inout")
_VALUE_NAMES = _ArgNames("val")


@dataclass
class RuntimeConfig:
    """Configuration of a :class:`TaskRuntime`."""

    n_workers: int = 4
    scheduling_policy: SchedulingPolicy = SchedulingPolicy.FIFO
    #: Name given to graphs produced by this runtime instance.
    graph_name: str = "app"
    #: Whether TASK_SUBMITTED events are logged.  Benchmark graph generation
    #: submits hundreds of thousands of tasks nobody replays, so it opts out.
    record_submissions: bool = True

    def __post_init__(self) -> None:
        check_positive_int(self.n_workers, "n_workers")


class TaskRuntime:
    """Programming-model facade: register data, submit tasks, taskwait."""

    def __init__(
        self,
        n_workers: int = 4,
        config: Optional[RuntimeConfig] = None,
        hook: Optional[TaskExecutionHook] = None,
    ) -> None:
        self.config = config if config is not None else RuntimeConfig(n_workers=n_workers)
        self.hook = hook
        self.events = EventLog()
        self._ids = itertools.count()
        self._graph = TaskGraph(self.config.graph_name)
        self._deps = DependencyTracker()
        self._handles: Dict[str, DataHandle] = {}
        self._results: List[ExecutionResult] = []

    # -- data registration ----------------------------------------------------

    def register_array(self, name: str, array: np.ndarray) -> DataHandle:
        """Register a NumPy array as runtime-managed data and return its handle.

        Non-contiguous input is copied into a contiguous managed buffer (read
        results back through ``handle.storage``): the replication protocol's
        region-scoped snapshot/restore needs byte-exact views of partial
        regions, which only exist over contiguous storage — a non-contiguous
        backing array would silently degrade restores to whole-array copies
        and reintroduce the multi-worker recovery race.
        """
        if name in self._handles:
            raise ValueError(f"a data handle named {name!r} already exists")
        handle = DataHandle(name, storage=np.ascontiguousarray(array))
        self._handles[name] = handle
        return handle

    def register_region(self, name: str, size_bytes: float) -> DataHandle:
        """Register simulation-only data (a size with no backing array)."""
        if name in self._handles:
            raise ValueError(f"a data handle named {name!r} already exists")
        handle = DataHandle(name, size_bytes=size_bytes)
        self._handles[name] = handle
        return handle

    def handle(self, name: str) -> DataHandle:
        """Look up a registered handle by name."""
        return self._handles[name]

    def handles(self) -> List[DataHandle]:
        """All registered handles."""
        return list(self._handles.values())

    # -- task submission ------------------------------------------------------

    def submit(
        self,
        func: Optional[Callable[..., Any]] = None,
        *,
        task_type: str = "task",
        in_: Sequence[DataRegion] = (),
        out: Sequence[DataRegion] = (),
        inout: Sequence[DataRegion] = (),
        values: Sequence[Any] = (),
        duration_s: float = 0.0,
        node: Optional[int] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> TaskDescriptor:
        """Create a task descriptor, infer its dependencies and add it to the graph.

        The Python body ``func`` receives the backing arrays of ``in_``, ``out``
        and ``inout`` regions followed by ``values``, in that order.
        """
        args: List[TaskArgument] = []
        for i, region in enumerate(in_):
            args.append(TaskArgument(_IN_NAMES[i], Direction.IN, region))
        for i, region in enumerate(out):
            args.append(TaskArgument(_OUT_NAMES[i], Direction.OUT, region))
        for i, region in enumerate(inout):
            args.append(TaskArgument(_INOUT_NAMES[i], Direction.INOUT, region))
        for i, value in enumerate(values):
            args.append(TaskArgument(_VALUE_NAMES[i], Direction.VALUE, None, value))

        task = TaskDescriptor(
            task_id=next(self._ids),
            task_type=task_type,
            args=args,
            func=func,
            duration_s=duration_s,
            node=node,
            metadata=dict(metadata or {}),
        )
        deps = self._deps.register(task)
        self._graph.add_task(task, deps)
        if self.config.record_submissions:
            self.events.record(EventKind.TASK_SUBMITTED, task_id=task.task_id)
        return task

    # -- execution ------------------------------------------------------------

    @property
    def graph(self) -> TaskGraph:
        """The task graph accumulated since the last :meth:`taskwait`/:meth:`reset`."""
        return self._graph

    def taskwait(self) -> ExecutionResult:
        """Execute all pending tasks, wait for completion, and start a new phase.

        Mirrors OmpSs' ``#pragma omp taskwait``: the call returns once every
        submitted task (and, with a replication hook installed, every replica)
        has finished.
        """
        executor = GraphExecutor(
            n_workers=self.config.n_workers,
            policy=self.config.scheduling_policy,
            hook=self.hook,
            event_log=self.events,
        )
        result = executor.run(self._graph)
        self._results.append(result)
        # A taskwait is a full barrier: subsequent tasks start a fresh dependency
        # context but keep the registered data handles.
        self._graph = TaskGraph(self.config.graph_name)
        self._deps.reset()
        return result

    def reset(self) -> None:
        """Discard pending tasks and dependency state (keeps data handles)."""
        self._graph = TaskGraph(self.config.graph_name)
        self._deps.reset()

    def results(self) -> List[ExecutionResult]:
        """Execution results of every completed :meth:`taskwait` phase."""
        return list(self._results)
