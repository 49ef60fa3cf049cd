"""The App_FIT selection heuristic (paper Section IV-B, Equation 1).

When a task is about to execute, App_FIT atomically checks

    current_fit + (λF(T) + λSDC(T)) > (threshold / N) * (i + 1)

and replicates the task when the condition holds: leaving the task unprotected
would push the accumulated FIT past the pro-rated share of the threshold
allotted to the tasks decided so far.  App_FIT only ever *adds* tasks to the
replicated set — replicas are never removed — so the reliability already paid
for is never lost.

The heuristic uses only information the dataflow runtime already has (argument
sizes, the total task count supplied by the user) and therefore needs no
profiling pre-run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.estimator import ArgumentSizeEstimator, FailureRateEstimator
from repro.core.fit import FitAccount, FitAudit
from repro.runtime.task import TaskDescriptor
from repro.util.validation import check_non_negative, check_positive_int


@dataclass
class SelectionDecision:
    """The outcome of one selection decision."""

    task_id: int
    replicate: bool
    task_fit: float
    current_fit_after: float
    envelope: float
    decision_index: int


class SelectionPolicy:
    """Base class for task-selection policies.

    A policy is consulted once per task, in the order tasks reach the point of
    execution, via :meth:`decide`.  Policies that need the full graph up front
    (offline baselines) override :meth:`prepare`.
    """

    #: Human-readable policy name used in reports.
    name: str = "base"

    def prepare(self, tasks: List[TaskDescriptor]) -> None:
        """Offline hook called with all tasks before execution starts."""

    def decide(self, task: TaskDescriptor) -> SelectionDecision:
        """Decide whether ``task`` must be replicated."""
        raise NotImplementedError

    def notify_completion(self, task: TaskDescriptor, replicated: bool) -> None:
        """Optional hook called when a task finishes (unused by most policies)."""


class AppFit(SelectionPolicy):
    """The paper's heuristic: keep the application under a FIT threshold.

    Parameters
    ----------
    threshold:
        The user-specified application FIT target.
    total_tasks:
        ``N``, the total number of tasks, which the paper assumes the user
        knows and passes to the runtime.
    estimator:
        Failure-rate estimator; defaults to the argument-size estimator of
        Section IV-A.
    residual_fit_factor:
        FIT fraction still charged for replicated tasks (see
        :class:`~repro.core.config.ReplicationConfig`).
    """

    name = "app_fit"

    def __init__(
        self,
        threshold: float,
        total_tasks: int,
        estimator: Optional[FailureRateEstimator] = None,
        residual_fit_factor: float = 0.0,
    ) -> None:
        check_non_negative(threshold, "threshold")
        check_positive_int(total_tasks, "total_tasks")
        self.estimator = estimator if estimator is not None else ArgumentSizeEstimator()
        self.account = FitAccount(threshold=threshold, total_tasks=total_tasks)
        self.residual_fit_factor = residual_fit_factor
        self.decisions: List[SelectionDecision] = []

    @property
    def threshold(self) -> float:
        """The configured application FIT threshold."""
        return self.account.threshold

    @property
    def total_tasks(self) -> int:
        """``N`` — the task count the envelope is pro-rated over."""
        return self.account.total_tasks

    def decide(self, task: TaskDescriptor) -> SelectionDecision:
        """Apply Equation 1 atomically and record the decision."""
        rates = self.estimator.estimate(task)
        envelope_before = self.account.envelope()
        replicate = self.account.decide(
            rates.total_fit, residual_fit_factor=self.residual_fit_factor
        )
        decision = SelectionDecision(
            task_id=task.task_id,
            replicate=replicate,
            task_fit=rates.total_fit,
            current_fit_after=self.account.current_fit,
            envelope=envelope_before,
            decision_index=self.account.decisions,
        )
        self.decisions.append(decision)
        return decision

    def audit(self) -> FitAudit:
        """Snapshot of the FIT account for threshold-respected verification."""
        return self.account.audit()

    def replicated_task_ids(self) -> List[int]:
        """Ids of tasks the heuristic chose to replicate so far."""
        return [d.task_id for d in self.decisions if d.replicate]

    def replication_fraction(self) -> float:
        """Fraction of decided tasks that were replicated."""
        if not self.decisions:
            return 0.0
        return sum(1 for d in self.decisions if d.replicate) / len(self.decisions)
