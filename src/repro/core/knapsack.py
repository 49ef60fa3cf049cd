"""Offline knapsack oracle for selective replication.

The paper observes that *optimal* selective replication is NP-hard and can be
formalised as a bounded knapsack problem; practical solutions must therefore be
heuristics.  This module implements that offline formulation as an oracle
baseline for the ablation benchmarks:

    choose the set U of tasks left unprotected so that
        sum of FIT(T) for T in U  <=  threshold
    maximising the replication cost avoided (the summed duration of U),

which is a 0/1 knapsack with capacity ``threshold``, item weight ``FIT(T)`` and
item value ``duration(T)`` (falling back to FIT as the value when durations are
unknown).  Everything *not* in the knapsack is replicated.

Two solvers are provided: an exact dynamic program over a discretised FIT grid
(for modest task counts) and a greedy density heuristic (for the Table I-sized
graphs, tens of thousands of tasks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.core.estimator import (
    ArgumentSizeEstimator,
    FailureRateEstimator,
    estimate_total_fits,
)
from repro.runtime.task import TaskDescriptor
from repro.util.validation import check_non_negative, check_positive_int


@dataclass
class KnapsackSolution:
    """Result of the oracle: which tasks to replicate."""

    replicate_ids: Set[int]
    unprotected_ids: Set[int]
    unprotected_fit: float
    threshold: float
    replicated_duration_s: float
    total_duration_s: float

    @property
    def replication_task_fraction(self) -> float:
        """Fraction of tasks selected for replication."""
        total = len(self.replicate_ids) + len(self.unprotected_ids)
        return len(self.replicate_ids) / total if total else 0.0

    @property
    def replication_time_fraction(self) -> float:
        """Fraction of computation time selected for replication."""
        if self.total_duration_s <= 0:
            return self.replication_task_fraction
        return self.replicated_duration_s / self.total_duration_s

    @property
    def feasible(self) -> bool:
        """Whether the unprotected FIT respects the threshold."""
        return self.unprotected_fit <= self.threshold + 1e-12


class KnapsackOracle:
    """Offline near-optimal selective replication baseline."""

    def __init__(
        self,
        threshold: float,
        estimator: Optional[FailureRateEstimator] = None,
        exact_limit: int = 64,
        grid_size: int = 2048,
    ) -> None:
        self.threshold = check_non_negative(threshold, "threshold")
        self.estimator = estimator if estimator is not None else ArgumentSizeEstimator()
        self.exact_limit = check_positive_int(exact_limit, "exact_limit")
        self.grid_size = check_positive_int(grid_size, "grid_size")

    # -- public API --------------------------------------------------------------

    def solve(self, tasks: Sequence[TaskDescriptor]) -> KnapsackSolution:
        """Choose the tasks to replicate for the given task list."""
        return self.solve_arrays(
            [t.task_id for t in tasks],
            estimate_total_fits(self.estimator, tasks).tolist(),
            [t.duration_s for t in tasks],
        )

    def solve_arrays(
        self,
        task_ids: Sequence[int],
        fits: Sequence[float],
        durations: Sequence[float],
    ) -> KnapsackSolution:
        """:meth:`solve` over per-task ids, total FITs and durations, in task order.

        The compiled-graph path passes a compiled graph's arrays (as lists),
        so both paths run this one solver.  An item's value is its duration,
        or its FIT when no task has a positive duration.
        """
        have_durations = any(d > 0 for d in durations)
        items = [
            (tid, fit, duration if have_durations else fit)
            for tid, fit, duration in zip(task_ids, fits, durations)
        ]
        if len(items) <= self.exact_limit:
            keep = self._solve_exact(items)
        else:
            keep = self._solve_greedy(items)
        self._enforce_feasible(items, keep)
        return self._solution(items, keep)

    # -- internals ----------------------------------------------------------------

    def _solve_greedy(self, items: List[Tuple[int, float, float]]) -> Set[int]:
        """Greedy by value density: pack high value-per-FIT tasks as unprotected."""
        budget = self.threshold
        keep: Set[int] = set()
        # Zero-FIT items are free to leave unprotected.
        ranked = sorted(
            items,
            key=lambda it: (it[2] / it[1]) if it[1] > 0 else float("inf"),
            reverse=True,
        )
        for task_id, fit, _value in ranked:
            if fit <= 0.0:
                keep.add(task_id)
            elif fit <= budget:
                keep.add(task_id)
                budget -= fit
        return keep

    def _solve_exact(self, items: List[Tuple[int, float, float]]) -> Set[int]:
        """Exact DP over a discretised FIT grid (ceil-rounded weights stay feasible)."""
        positive = [it for it in items if it[1] > 0]
        free = {it[0] for it in items if it[1] <= 0}
        if not positive or self.threshold <= 0:
            return free
        import math

        scale = self.grid_size / self.threshold
        if not math.isfinite(scale):
            # The threshold is so small (denormal) that the grid degenerates:
            # no positive-FIT task fits, so only the zero-FIT ones stay bare.
            return free
        weights: List[int] = []
        for it in positive:
            w = it[1] * scale
            # NaN/inf/oversized weights can never be packed; clamp instead of
            # letting ``int(ceil(inf))`` overflow.
            weights.append(int(math.ceil(w)) if w <= self.grid_size else self.grid_size + 1)
        values = [it[2] for it in positive]
        capacity = self.grid_size
        n = len(positive)
        # dp[c] = best value using capacity c; choice tracking for reconstruction.
        dp = [0.0] * (capacity + 1)
        take = [[False] * (capacity + 1) for _ in range(n)]
        for i in range(n):
            w, v = weights[i], values[i]
            if w > capacity:
                continue
            for c in range(capacity, w - 1, -1):
                cand = dp[c - w] + v
                if cand > dp[c]:
                    dp[c] = cand
                    take[i][c] = True
        # Reconstruct.
        keep: Set[int] = set(free)
        c = capacity
        for i in range(n - 1, -1, -1):
            if take[i][c]:
                keep.add(positive[i][0])
                c -= weights[i]
        return keep

    def _enforce_feasible(self, items: List[Tuple[int, float, float]], keep: Set[int]) -> None:
        """Repair ``keep`` in place so the unprotected FIT respects the threshold.

        Both solvers work on rounded/decremented weights, so accumulated
        floating-point error can leave the chosen set a hair over the budget
        (the hypothesis suite found a denormal-threshold case).  Evicting the
        lowest value-density items first restores feasibility while giving up
        the least replication cost avoided.
        """
        kept = [it for it in items if it[0] in keep and it[1] > 0]
        unprotected_fit = sum(it[1] for it in kept)
        if unprotected_fit <= self.threshold:
            return
        kept.sort(key=lambda it: (it[2] / it[1]) if it[1] > 0 else float("inf"))
        for task_id, fit, _value in kept:
            keep.discard(task_id)
            unprotected_fit = sum(it[1] for it in items if it[0] in keep)
            if unprotected_fit <= self.threshold:
                return

    def _solution(
        self, items: List[Tuple[int, float, float]], keep: Set[int]
    ) -> KnapsackSolution:
        """Assemble the solution record for the kept (replicated) item set."""
        unprotected_fit = sum(fit for tid, fit, _ in items if tid in keep)
        replicate_ids = {tid for tid, _, _ in items if tid not in keep}
        total_duration = sum(v for _, _, v in items)
        replicated_duration = sum(v for tid, _, v in items if tid in replicate_ids)
        return KnapsackSolution(
            replicate_ids=replicate_ids,
            unprotected_ids=set(keep),
            unprotected_fit=unprotected_fit,
            threshold=self.threshold,
            replicated_duration_s=replicated_duration,
            total_duration_s=total_duration,
        )
