"""The selective-replication engine.

Two entry points serve the two execution modes: the functional mode runs
real task kernels on the task runtime, and the simulation mode replays a
task graph on the simulator (``docs/architecture.md``, "Layer map"):

* **Execution hook** (functional mode): :class:`SelectiveReplicationEngine`
  implements the executor's hook protocol.  Right before a task runs, the
  selection policy is consulted; replicated tasks go through the full
  protocol of :class:`~repro.core.replication.TaskReplicator`, unprotected
  tasks run bare (but still under fault injection).
* **Decision driver** (simulation mode): :func:`decide_for_graph` walks a task
  graph in submission order, applies a policy to every task and returns the
  aggregate :class:`ReplicationDecisions` — the exact quantities Figure 3
  plots (fraction of tasks replicated and fraction of computation time
  replicated), plus the FIT audit.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from repro.core.config import ReplicationConfig
from repro.core.heuristic import AppFit, SelectionDecision, SelectionPolicy
from repro.core.replication import ReplicationOutcome, TaskReplicator
from repro.runtime.events import EventKind, EventLog
from repro.runtime.graph import TaskGraph
from repro.runtime.task import TaskDescriptor


@dataclass
class ReplicationDecisions:
    """Aggregate outcome of applying a selection policy to a set of tasks."""

    policy_name: str
    total_tasks: int
    replicated_tasks: int
    total_duration_s: float
    replicated_duration_s: float
    replicated_ids: Set[int] = field(default_factory=set)
    decisions: List[SelectionDecision] = field(default_factory=list)
    audit: Optional[object] = None

    @property
    def task_fraction(self) -> float:
        """Fraction of tasks replicated (the paper's "% of tasks replicated")."""
        return self.replicated_tasks / self.total_tasks if self.total_tasks else 0.0

    @property
    def time_fraction(self) -> float:
        """Fraction of computation time replicated ("% computation time replicated")."""
        if self.total_duration_s <= 0:
            return self.task_fraction
        return self.replicated_duration_s / self.total_duration_s


def decide_for_graph(
    graph: TaskGraph,
    policy: SelectionPolicy,
) -> ReplicationDecisions:
    """Apply ``policy`` to every task of ``graph`` in submission order."""
    tasks = graph.tasks()
    policy.prepare(tasks)
    replicated_ids: Set[int] = set()
    decisions: List[SelectionDecision] = []
    replicated_duration = 0.0
    total_duration = 0.0
    for task in tasks:
        decision = policy.decide(task)
        decisions.append(decision)
        total_duration += task.duration_s
        if decision.replicate:
            replicated_ids.add(task.task_id)
            replicated_duration += task.duration_s
    audit = policy.audit() if isinstance(policy, AppFit) else None
    return ReplicationDecisions(
        policy_name=policy.name,
        total_tasks=len(tasks),
        replicated_tasks=len(replicated_ids),
        total_duration_s=total_duration,
        replicated_duration_s=replicated_duration,
        replicated_ids=replicated_ids,
        decisions=decisions,
        audit=audit,
    )


class SelectiveReplicationEngine:
    """Execution hook: consult the policy, then run protected or unprotected."""

    def __init__(
        self,
        policy: SelectionPolicy,
        replicator: Optional[TaskReplicator] = None,
        config: Optional[ReplicationConfig] = None,
        events: Optional[EventLog] = None,
    ) -> None:
        self.policy = policy
        self.config = config if config is not None else ReplicationConfig()
        self.events = events if events is not None else EventLog()
        self.replicator = (
            replicator
            if replicator is not None
            else TaskReplicator(config=self.config, events=self.events)
        )
        self._lock = threading.Lock()
        self.outcomes: Dict[int, ReplicationOutcome] = {}
        self.decisions: Dict[int, SelectionDecision] = {}

    # -- executor hook protocol ---------------------------------------------------

    def prepare_graph(self, graph: TaskGraph) -> None:
        """Pre-decide every task of ``graph`` in submission order.

        The executor calls this before dispatching any task.  Selection
        policies may be order-sensitive (App_FIT accumulates a FIT account, so
        *which* tasks it protects depends on the order it is consulted);
        deciding in submission order up front makes the protected set — and
        with keyed fault streams, the injected-fault multiset — a pure
        function of the graph, independent of worker count and scheduling.
        Only information the policy would have at execution time is used
        (argument sizes and the task count), so the decisions themselves are
        unchanged; only their order is pinned.  Every task of ``graph`` is
        decided afresh — an engine reused across several runs (each building
        its own graph, possibly with colliding task ids) must never serve a
        previous graph's decision for a new task.
        """
        with self._lock:
            for task in graph.tasks():
                self.decisions[task.task_id] = self.policy.decide(task)

    def execute(self, task: TaskDescriptor, invoke: Callable[[TaskDescriptor], Any]) -> Any:
        """Execute the task with or without the replication protocol.

        Uses the decision taken by :meth:`prepare_graph` when available and
        falls back to deciding on the spot (callers driving the hook directly,
        without an executor, never see ``prepare_graph``).
        """
        with self._lock:
            decision = self.decisions.get(task.task_id)
            if decision is None:
                decision = self.policy.decide(task)
                self.decisions[task.task_id] = decision
        if decision.replicate:
            outcome = self.replicator.execute_protected(task, invoke)
        else:
            outcome = self.replicator.execute_unprotected(task, invoke)
        with self._lock:
            self.outcomes[task.task_id] = outcome
        self.policy.notify_completion(task, decision.replicate)
        return outcome

    # -- reporting ------------------------------------------------------------------

    def summary(self) -> ReplicationDecisions:
        """Aggregate decisions taken so far (for functional-mode runs)."""
        with self._lock:
            decisions = list(self.decisions.values())
            outcomes = dict(self.outcomes)
        replicated_ids = {d.task_id for d in decisions if d.replicate}
        audit = self.policy.audit() if isinstance(self.policy, AppFit) else None
        return ReplicationDecisions(
            policy_name=self.policy.name,
            total_tasks=len(decisions),
            replicated_tasks=len(replicated_ids),
            total_duration_s=0.0,
            replicated_duration_s=0.0,
            replicated_ids=replicated_ids,
            decisions=decisions,
            audit=audit,
        )

    def recovery_counts(self) -> Dict[str, int]:
        """Histogram of recovery-relevant outcomes across executed tasks."""
        with self._lock:
            outcomes = list(self.outcomes.values())
        counts = {
            "tasks": len(outcomes),
            "protected": sum(1 for o in outcomes if o.protected),
            "sdc_detected": sum(1 for o in outcomes if o.sdc_detected),
            "sdc_corrected": sum(1 for o in outcomes if o.sdc_corrected),
            "sdc_escaped": sum(1 for o in outcomes if o.sdc_escaped),
            "crash_recovered": sum(1 for o in outcomes if o.crash_recovered),
            "fatal_crashes": sum(1 for o in outcomes if o.fatal_crash),
            "unrecovered": sum(1 for o in outcomes if o.unrecovered),
        }
        return counts
