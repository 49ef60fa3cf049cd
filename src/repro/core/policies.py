"""Baseline selection policies App_FIT is compared against.

The paper's evaluation uses two extremes — complete replication (Section V-A2)
and, implicitly, no replication (the fault-free baseline) — and notes that
optimal selection is a bounded-knapsack problem.  This module provides those
two extremes plus two selective baselines (random and offline top-FIT) used
by the ablation benchmarks to show where a budget-aware heuristic earns its
keep.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.estimator import ArgumentSizeEstimator, FailureRateEstimator
from repro.core.heuristic import SelectionDecision, SelectionPolicy
from repro.runtime.task import TaskDescriptor
from repro.util.rng import RngStream
from repro.util.validation import check_fraction


class _CountingPolicy(SelectionPolicy):
    """Shared bookkeeping: decision list and replication fraction."""

    def __init__(self) -> None:
        self.decisions: List[SelectionDecision] = []

    def _record(self, task: TaskDescriptor, replicate: bool, task_fit: float = 0.0) -> SelectionDecision:
        """Build the decision and update the running replication counters."""
        decision = SelectionDecision(
            task_id=task.task_id,
            replicate=replicate,
            task_fit=task_fit,
            current_fit_after=0.0,
            envelope=0.0,
            decision_index=len(self.decisions) + 1,
        )
        self.decisions.append(decision)
        return decision

    def replication_fraction(self) -> float:
        """Fraction of decided tasks that were replicated."""
        if not self.decisions:
            return 0.0
        return sum(1 for d in self.decisions if d.replicate) / len(self.decisions)


class CompleteReplication(_CountingPolicy):
    """Replicate every task (the paper's Section V-A2 configuration)."""

    name = "complete"

    def decide(self, task: TaskDescriptor) -> SelectionDecision:
        """Always replicate."""
        return self._record(task, True)


class NoReplication(_CountingPolicy):
    """Never replicate (the fault-free / unprotected baseline)."""

    name = "none"

    def decide(self, task: TaskDescriptor) -> SelectionDecision:
        """Never replicate."""
        return self._record(task, False)


class RandomReplication(_CountingPolicy):
    """Replicate each task independently with probability ``p``.

    A FIT-oblivious baseline: it reaches a target *count* of replicas but
    ignores which tasks actually carry reliability weight.
    """

    name = "random"

    def __init__(self, probability: float, rng: Optional[RngStream] = None) -> None:
        super().__init__()
        self.probability = check_fraction(probability, "probability")
        self.rng = rng if rng is not None else RngStream(11)

    def decide(self, task: TaskDescriptor) -> SelectionDecision:
        """Replicate with fixed probability."""
        return self._record(task, self.rng.bernoulli(self.probability))


class TopFitReplication(_CountingPolicy):
    """Offline baseline: replicate the ``fraction`` of tasks with highest FIT.

    Requires the whole task list up front (via :meth:`prepare`), i.e. exactly
    the profiling knowledge App_FIT is designed to avoid needing.
    """

    name = "top_fit"

    def __init__(
        self,
        fraction: float,
        estimator: Optional[FailureRateEstimator] = None,
    ) -> None:
        super().__init__()
        self.fraction = check_fraction(fraction, "fraction")
        self.estimator = estimator if estimator is not None else ArgumentSizeEstimator()
        self._selected: set = set()
        self._prepared = False

    def prepare(self, tasks: List[TaskDescriptor]) -> None:
        """Pick the top-FIT fraction of the task list."""
        from repro.core.estimator import estimate_total_fits

        fits = estimate_total_fits(self.estimator, tasks)
        ranked = sorted(zip(tasks, fits.tolist()), key=lambda tf: tf[1], reverse=True)
        k = int(round(self.fraction * len(ranked)))
        self._selected = {t.task_id for t, _fit in ranked[:k]}
        self._prepared = True

    def decide(self, task: TaskDescriptor) -> SelectionDecision:
        """Replicate iff the task was selected during :meth:`prepare`."""
        if not self._prepared:
            raise RuntimeError("TopFitReplication.prepare() must be called first")
        fit = self.estimator.estimate(task).total_fit
        return self._record(task, task.task_id in self._selected, task_fit=fit)
