"""FIT budget accounting for App_FIT (Equation 1).

The account tracks:

* ``current_fit`` — the accumulated FIT of tasks that ran without protection
  (plus the configured residual for protected tasks),
* ``decisions`` — ``i``, the number of tasks decided so far,
* the *envelope* ``(threshold / N) * (i + 1)`` that the next unprotected task
  must not push ``current_fit`` beyond.

All mutation happens under a lock because, in the real runtime as in our
functional executor, decisions are taken concurrently by worker threads; the
paper stresses that the check is performed atomically.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.util.validation import check_non_negative, check_positive_int


@dataclass
class FitAudit:
    """A snapshot of the account used to verify the threshold was honoured."""

    threshold: float
    total_tasks: int
    decisions: int
    current_fit: float
    replicated: int
    unprotected: int
    #: Largest value of ``current_fit - envelope(i)`` observed right after a
    #: decision; <= 0 means the pro-rated threshold was never exceeded.
    max_envelope_excess: float

    @property
    def threshold_respected(self) -> bool:
        """Whether ``current_fit`` stayed within the final threshold."""
        return self.current_fit <= self.threshold + 1e-12

    @property
    def envelope_respected(self) -> bool:
        """Whether the pro-rated envelope was respected after every decision."""
        return self.max_envelope_excess <= 1e-12


class FitAccount:
    """Thread-safe FIT bookkeeping for one application run."""

    def __init__(self, threshold: float, total_tasks: int) -> None:
        self.threshold = check_non_negative(threshold, "threshold")
        self.total_tasks = check_positive_int(total_tasks, "total_tasks")
        self._lock = threading.Lock()
        self._current_fit = 0.0
        self._decisions = 0
        self._replicated = 0
        self._unprotected = 0
        self._max_excess = float("-inf")
        self._history: List[Tuple[int, float, bool]] = []

    # -- inspection ------------------------------------------------------------

    @property
    def current_fit(self) -> float:
        """The accumulated FIT of unprotected work so far."""
        with self._lock:
            return self._current_fit

    @property
    def decisions(self) -> int:
        """Number of tasks decided so far (``i`` in Equation 1)."""
        with self._lock:
            return self._decisions

    def envelope(self, i: Optional[int] = None) -> float:
        """The pro-rated threshold ``(threshold / N) * (i + 1)``.

        With ``i`` omitted, uses the current decision count, i.e. the envelope
        the *next* decision is checked against.
        """
        if i is None:
            i = self.decisions
        return (self.threshold / self.total_tasks) * (i + 1)

    @property
    def per_task_budget(self) -> float:
        """``threshold / N`` — the average FIT each task may contribute."""
        return self.threshold / self.total_tasks

    # -- the atomic decision (Equation 1) --------------------------------------

    def would_exceed(self, task_fit: float) -> bool:
        """Evaluate Equation 1 for a task with rate ``task_fit`` (no mutation)."""
        with self._lock:
            envelope = (self.threshold / self.total_tasks) * (self._decisions + 1)
            return self._current_fit + task_fit > envelope

    def decide(self, task_fit: float, residual_fit_factor: float = 0.0) -> bool:
        """Atomically evaluate Equation 1 and charge the account.

        Returns ``True`` when the task must be replicated.  A replicated task
        charges ``residual_fit_factor * task_fit``; an unprotected task charges
        its full FIT.  The decision counter advances either way.
        """
        check_non_negative(task_fit, "task_fit")
        with self._lock:
            envelope = (self.threshold / self.total_tasks) * (self._decisions + 1)
            replicate = self._current_fit + task_fit > envelope
            if replicate:
                charge = residual_fit_factor * task_fit
                self._replicated += 1
            else:
                charge = task_fit
                self._unprotected += 1
            self._current_fit += charge
            self._decisions += 1
            excess = self._current_fit - envelope
            self._max_excess = max(self._max_excess, excess)
            self._history.append((self._decisions, self._current_fit, replicate))
            return replicate

    def charge_external(self, fit: float) -> None:
        """Charge FIT that bypassed the decision path (e.g. unrecovered errors)."""
        check_non_negative(fit, "fit")
        with self._lock:
            self._current_fit += fit

    # -- reporting --------------------------------------------------------------

    def audit(self) -> FitAudit:
        """Produce an auditable snapshot of the account."""
        with self._lock:
            max_excess = self._max_excess if self._decisions else 0.0
            return FitAudit(
                threshold=self.threshold,
                total_tasks=self.total_tasks,
                decisions=self._decisions,
                current_fit=self._current_fit,
                replicated=self._replicated,
                unprotected=self._unprotected,
                max_envelope_excess=max_excess,
            )

    def history(self) -> List[Tuple[int, float, bool]]:
        """Per-decision history: (decision index, current_fit after, replicated)."""
        with self._lock:
            return list(self._history)
