"""Pluggable per-task failure-rate estimators (paper Section IV-A).

The paper estimates λF(T) and λSDC(T) from argument sizes and stresses that the
framework is *orthogonal* to how the rates are obtained: vulnerability
analyses, system logs or application-specific studies can refine them and the
heuristic consumes the refined numbers unchanged.  This module provides the
estimator protocol and the argument-size estimator (the paper's default).
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence

import numpy as np

from repro.faults.model import FailureModel, TaskFailureRates
from repro.faults.rates import FitRateSpec
from repro.runtime.task import TaskDescriptor


class FailureRateEstimator(Protocol):
    """Anything that can attribute crash/SDC FIT rates to a task."""

    def estimate(self, task: TaskDescriptor) -> TaskFailureRates:
        """Return the estimated rates for ``task``."""
        ...  # pragma: no cover - protocol definition


def estimate_total_fits(
    estimator: "FailureRateEstimator", tasks: Sequence[TaskDescriptor]
) -> np.ndarray:
    """Total FIT (crash + SDC) per task, one :meth:`estimate` call each.

    The reference policies' estimation; the compiled-graph path maps a
    whole byte array at once (:func:`repro.core.vectorized.compiled_total_fits`)
    to the same values.
    """
    return np.fromiter(
        (estimator.estimate(t).total_fit for t in tasks),
        dtype=np.float64,
        count=len(tasks),
    )


class ArgumentSizeEstimator:
    """The paper's estimator: node FIT scaled by task argument size."""

    def __init__(self, rate_spec: Optional[FitRateSpec] = None) -> None:
        self.model = FailureModel(rate_spec)

    @property
    def rate_spec(self) -> FitRateSpec:
        """The underlying rate specification."""
        return self.model.rate_spec

    def estimate(self, task: TaskDescriptor) -> TaskFailureRates:
        """λF(T), λSDC(T) proportional to the task's total argument bytes."""
        return self.model.task_rates(task)

    def estimate_batch_bytes(self, arg_bytes: np.ndarray) -> np.ndarray:
        """Vectorized total FIT from per-task argument-byte totals.

        The compiled-graph fast path stores each task's total argument size
        as a flat array; this maps it straight to FITs without descriptors,
        bit-identical to :meth:`estimate` on the original tasks.
        """
        return self.model.fit_array_for_bytes(arg_bytes)
