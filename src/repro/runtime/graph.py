"""The task dependency DAG.

The graph is the common currency between the runtime (which builds it), the
selection policies (which walk its tasks in submission order), the functional
executor (which runs it with real threads) and the machine simulator (which
replays it against a resource model).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Set

from repro.runtime.task import TaskDescriptor


@dataclass
class GraphStats:
    """Summary statistics of a task graph."""

    n_tasks: int
    n_edges: int
    total_work_s: float
    critical_path_s: float
    max_width: int
    total_argument_bytes: float

    @property
    def average_parallelism(self) -> float:
        """Total work divided by the critical path (ideal speedup bound)."""
        if self.critical_path_s <= 0:
            return float(self.n_tasks) if self.n_tasks else 0.0
        return self.total_work_s / self.critical_path_s


class TaskGraph:
    """A directed acyclic graph of :class:`TaskDescriptor` nodes."""

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._tasks: Dict[int, TaskDescriptor] = {}
        self._succ: Dict[int, Set[int]] = {}
        self._pred: Dict[int, Set[int]] = {}
        self._order: List[int] = []  # submission order

    # -- construction --------------------------------------------------------

    def add_task(self, task: TaskDescriptor, deps: Iterable[int] = ()) -> None:
        """Add ``task`` with dependencies on already-present task ids."""
        tid = task.task_id
        if tid in self._tasks:
            raise ValueError(f"duplicate task id {tid}")
        self._tasks[tid] = task
        succ = self._succ
        succ[tid] = set()
        pred = self._pred[tid] = set()
        self._order.append(tid)
        # Inlined add_edge (this loop inserts millions of edges for the Table I
        # graphs); the validation is the same, dst is known by construction.
        for dep in deps:
            dep_succ = succ.get(dep)
            if dep_succ is None:
                raise KeyError(f"unknown source task {dep}")
            if dep == tid:
                raise ValueError(f"self-dependency on task {dep}")
            dep_succ.add(tid)
            pred.add(dep)

    def add_edge(self, src: int, dst: int) -> None:
        """Add a dependency edge ``src -> dst`` (dst depends on src)."""
        if src not in self._tasks:
            raise KeyError(f"unknown source task {src}")
        if dst not in self._tasks:
            raise KeyError(f"unknown destination task {dst}")
        if src == dst:
            raise ValueError(f"self-dependency on task {src}")
        self._succ[src].add(dst)
        self._pred[dst].add(src)

    # -- accessors ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task_id: int) -> bool:
        return task_id in self._tasks

    def task(self, task_id: int) -> TaskDescriptor:
        """The descriptor for ``task_id``."""
        return self._tasks[task_id]

    def tasks(self) -> List[TaskDescriptor]:
        """All tasks in submission order."""
        return [self._tasks[t] for t in self._order]

    def task_ids(self) -> List[int]:
        """All task ids in submission order."""
        return list(self._order)

    def successors(self, task_id: int) -> Set[int]:
        """Ids of tasks that depend on ``task_id``."""
        return set(self._succ[task_id])

    def predecessors(self, task_id: int) -> Set[int]:
        """Ids of tasks ``task_id`` depends on."""
        return set(self._pred[task_id])

    def in_degree(self, task_id: int) -> int:
        """Number of unsatisfied dependencies when nothing has run."""
        return len(self._pred[task_id])

    def roots(self) -> List[int]:
        """Tasks with no dependencies, in submission order."""
        return [t for t in self._order if not self._pred[t]]

    def leaves(self) -> List[int]:
        """Tasks nothing depends on, in submission order."""
        return [t for t in self._order if not self._succ[t]]

    def n_edges(self) -> int:
        """Total number of dependency edges."""
        return sum(len(s) for s in self._succ.values())

    # -- analysis -------------------------------------------------------------

    def topological_order(self) -> List[int]:
        """A topological ordering (raises if the graph has a cycle)."""
        in_deg = {t: len(self._pred[t]) for t in self._order}
        ready = deque(t for t in self._order if in_deg[t] == 0)
        out: List[int] = []
        while ready:
            t = ready.popleft()
            out.append(t)
            for s in sorted(self._succ[t]):
                in_deg[s] -= 1
                if in_deg[s] == 0:
                    ready.append(s)
        if len(out) != len(self._tasks):
            raise ValueError(f"task graph {self.name!r} contains a cycle")
        return out

    def is_acyclic(self) -> bool:
        """Whether the graph is a DAG."""
        try:
            self.topological_order()
            return True
        except ValueError:
            return False

    def critical_path_seconds(self) -> float:
        """Length of the longest duration-weighted path (lower bound on makespan)."""
        finish: Dict[int, float] = {}
        for t in self.topological_order():
            start = max((finish[p] for p in self._pred[t]), default=0.0)
            finish[t] = start + self._tasks[t].duration_s
        return max(finish.values(), default=0.0)

    def total_work_seconds(self) -> float:
        """Sum of all task durations."""
        return sum(t.duration_s for t in self._tasks.values())

    def total_argument_bytes(self) -> float:
        """Sum of argument sizes across all tasks."""
        return sum(t.argument_bytes for t in self._tasks.values())

    def max_width(self) -> int:
        """Maximum number of tasks with identical depth (a parallelism proxy)."""
        depth: Dict[int, int] = {}
        for t in self.topological_order():
            depth[t] = 1 + max((depth[p] for p in self._pred[t]), default=-1)
        if not depth:
            return 0
        counts: Dict[int, int] = {}
        for d in depth.values():
            counts[d] = counts.get(d, 0) + 1
        return max(counts.values())

    def stats(self) -> GraphStats:
        """Compute :class:`GraphStats` for the graph."""
        return GraphStats(
            n_tasks=len(self._tasks),
            n_edges=self.n_edges(),
            total_work_s=self.total_work_seconds(),
            critical_path_s=self.critical_path_seconds(),
            max_width=self.max_width(),
            total_argument_bytes=self.total_argument_bytes(),
        )

    def iter_submission_order(self) -> Iterator[TaskDescriptor]:
        """Iterate descriptors in submission (program) order."""
        for t in self._order:
            yield self._tasks[t]

    def subgraph_types(self) -> Dict[str, int]:
        """Histogram of task types (useful for benchmark sanity checks)."""
        hist: Dict[str, int] = {}
        for t in self._tasks.values():
            hist[t.task_type] = hist.get(t.task_type, 0) + 1
        return hist
