"""Selection over compiled-graph arrays: the fast path of every policy cell.

The scalar path (:class:`~repro.core.heuristic.AppFit` and the baselines of
:mod:`repro.core.policies`, driven by
:func:`~repro.core.engine.decide_for_graph`) consults the estimator once per
task and materialises a :class:`SelectionDecision` per decision.  That is the
right shape for the runtime hook, and it stays the reference; but the
experiment drivers evaluate a policy over tens of thousands to millions of
tasks per cell, where the object churn dominates.

This module selects straight from a
:class:`~repro.runtime.compiled.CompiledGraph`: the per-task FITs come from
its argument-byte array in one NumPy pass (:func:`compiled_total_fits`), the
inherently sequential Equation-1 scan runs over primitive floats
(:func:`appfit_sweep`), the baselines are a sort, a Bernoulli block or a
constant mask (:func:`decide_baseline`), and one fold turns any mask into
:class:`ReplicationDecisions`.  The knapsack oracle's array entry point is
:meth:`repro.core.knapsack.KnapsackOracle.solve_arrays`.  Every arithmetic
operation mirrors the scalar implementation exactly, so the fractions, ids
and audits are bit-identical to the reference, which the equivalence test
suite pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Set

import numpy as np

from repro.core.engine import ReplicationDecisions
from repro.core.estimator import FailureRateEstimator
from repro.core.fit import FitAudit
from repro.runtime.compiled import CompiledGraph, compile_graph
from repro.runtime.graph import TaskGraph
from repro.util.rng import RngStream
from repro.util.validation import check_non_negative, check_positive_int


@dataclass
class AppFitSweepResult:
    """Outcome of one vectorized Equation-1 sweep."""

    replicate: np.ndarray  #: boolean decision per task, in input order
    current_fit: float  #: accumulated FIT after the last decision
    max_envelope_excess: float  #: worst ``current_fit - envelope(i)`` observed
    threshold: float
    total_tasks: int

    @property
    def replicated_count(self) -> int:
        """Number of tasks selected for replication."""
        return int(np.count_nonzero(self.replicate))

    def audit(self) -> FitAudit:
        """A :class:`FitAudit` equivalent to the scalar account's snapshot."""
        n = len(self.replicate)
        replicated = self.replicated_count
        return FitAudit(
            threshold=self.threshold,
            total_tasks=self.total_tasks,
            decisions=n,
            current_fit=self.current_fit,
            replicated=replicated,
            unprotected=n - replicated,
            max_envelope_excess=self.max_envelope_excess if n else 0.0,
        )


def appfit_sweep(
    fits: np.ndarray,
    threshold: float,
    total_tasks: Optional[int] = None,
    residual_fit_factor: float = 0.0,
) -> AppFitSweepResult:
    """Evaluate Equation 1 over an array of per-task FIT rates.

    ``fits`` is the total FIT (crash + SDC) of every task in decision order;
    ``total_tasks`` is the ``N`` the envelope is pro-rated over (defaults to
    ``len(fits)``).  The scan is sequential by definition — each decision
    charges the account the next one checks — but it runs over primitive
    floats, which is what makes the batch path fast.
    """
    check_non_negative(threshold, "threshold")
    n = len(fits)
    if total_tasks is None:
        total_tasks = n
    check_positive_int(total_tasks, "total_tasks")
    per_task = threshold / total_tasks
    replicate = np.empty(n, dtype=bool)
    current = 0.0
    max_excess = float("-inf")
    i = 0
    for fit in fits.tolist():
        envelope = per_task * (i + 1)
        rep = current + fit > envelope
        current += residual_fit_factor * fit if rep else fit
        replicate[i] = rep
        excess = current - envelope
        if excess > max_excess:
            max_excess = excess
        i += 1
    return AppFitSweepResult(
        replicate=replicate,
        current_fit=current,
        max_envelope_excess=max_excess,
        threshold=threshold,
        total_tasks=total_tasks,
    )


def decide_for_graph_fast(
    graph: TaskGraph,
    threshold: float,
    estimator: FailureRateEstimator,
    residual_fit_factor: float = 0.0,
) -> ReplicationDecisions:
    """:func:`decide_for_compiled` over a freshly compiled ``graph``.

    Nothing in the package calls it: the benchmark harness's tracer
    (``bench/tracing.py``) looks it up by name, and ROADMAP item 5, which
    moves that tracer onto ``repro.obs``, deletes it.
    """
    return decide_for_compiled(compile_graph(graph), threshold, estimator, residual_fit_factor)


def _decisions_from_mask(
    policy_name: str,
    replicate: np.ndarray,
    task_ids: Sequence[int],
    durations: Sequence[float],
    audit: Optional[FitAudit] = None,
) -> ReplicationDecisions:
    """Fold a per-task replicate mask plus (id, duration) streams into decisions.

    The duration accumulations run in task order with plain float adds,
    mirroring :func:`~repro.core.engine.decide_for_graph`'s per-decision
    bookkeeping exactly.  App_FIT and the array baselines share this fold.
    """
    replicated_ids: Set[int] = set()
    replicated_duration = 0.0
    total_duration = 0.0
    for tid, duration, rep in zip(task_ids, durations, replicate.tolist()):
        total_duration += duration
        if rep:
            replicated_ids.add(tid)
            replicated_duration += duration
    return ReplicationDecisions(
        policy_name=policy_name,
        total_tasks=len(replicate),
        replicated_tasks=len(replicated_ids),
        total_duration_s=total_duration,
        replicated_duration_s=replicated_duration,
        replicated_ids=replicated_ids,
        decisions=[],
        audit=audit,
    )


def compiled_total_fits(
    estimator: FailureRateEstimator, compiled: CompiledGraph
) -> np.ndarray:
    """Per-task total FITs straight from a compiled graph's byte arrays.

    Requires an estimator with the ``estimate_batch_bytes`` extension (the
    argument-size estimator has one); estimators that need full descriptors
    (type weights, traces) raise ``TypeError`` so callers fall back to the
    object-graph path.
    """
    batch_bytes = getattr(estimator, "estimate_batch_bytes", None)
    if batch_bytes is None:
        raise TypeError(
            f"{type(estimator).__name__} cannot estimate from compiled byte "
            "arrays; use the TaskGraph path"
        )
    return np.asarray(batch_bytes(compiled.arg_bytes), dtype=np.float64)


def decide_for_compiled(
    compiled: CompiledGraph,
    threshold: float,
    estimator: FailureRateEstimator,
    residual_fit_factor: float = 0.0,
) -> ReplicationDecisions:
    """``decide_for_graph(graph, AppFit(...))`` over a compiled graph — no descriptors.

    Worker processes use this with memory-mapped compiled graphs: the FIT
    estimates come from the stored argument-byte array and the duration
    bookkeeping from the stored duration array, each bit-identical to the
    object-graph equivalents, so the resulting decisions (ids, fractions,
    audit) are exactly those of the reference path.
    """
    fits = compiled_total_fits(estimator, compiled)
    sweep = appfit_sweep(
        fits, threshold, total_tasks=compiled.n, residual_fit_factor=residual_fit_factor
    )
    return _decisions_from_mask(
        "app_fit",
        sweep.replicate,
        compiled.task_ids.tolist(),
        compiled.durations.tolist(),
        audit=sweep.audit(),
    )


def decide_baseline(
    policy_name: str,
    task_ids: Sequence[int],
    fits: np.ndarray,
    durations: Sequence[float],
    fraction: float,
    seed: int,
) -> ReplicationDecisions:
    """A FIT-oblivious or offline baseline of :mod:`repro.core.policies` over arrays.

    ``fits`` are the per-task total FITs in task order (see
    :func:`compiled_total_fits`); ``fraction`` is the replica budget of the
    budget-bounded baselines.  Each mask equals, bit for bit, the decisions
    ``decide_for_graph`` takes with the descriptor policy:

    * ``top_fit`` — :class:`~repro.core.policies.TopFitReplication`: the
      ``round(fraction * n)`` highest-FIT tasks; the stable sort keeps tied
      tasks in task order, as ``sorted(..., reverse=True)`` does;
    * ``random`` — :class:`~repro.core.policies.RandomReplication` with
      ``RngStream(seed)``: one block of the uniforms its ``decide`` draws one
      at a time, and none when ``fraction`` is 0 or 1, as
      :meth:`~repro.util.rng.RngStream.bernoulli` draws none;
    * ``complete`` — :class:`~repro.core.policies.CompleteReplication`.
    """
    n = len(task_ids)
    if policy_name == "top_fit":
        replicate = np.zeros(n, dtype=bool)
        replicate[np.argsort(-fits, kind="stable")[: int(round(fraction * n))]] = True
    elif policy_name == "random":
        if fraction <= 0.0 or fraction >= 1.0:
            replicate = np.full(n, fraction >= 1.0)
        else:
            replicate = RngStream(seed).generator.random(n) < fraction
    elif policy_name == "complete":
        replicate = np.ones(n, dtype=bool)
    else:
        raise KeyError(f"no array form of policy {policy_name!r}")
    return _decisions_from_mask(policy_name, replicate, task_ids, durations)
