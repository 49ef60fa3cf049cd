"""Pluggable per-task failure-rate estimators (paper Section IV-A).

The paper estimates λF(T) and λSDC(T) from argument sizes and stresses that the
framework is *orthogonal* to how the rates are obtained: vulnerability
analyses, system logs or application-specific studies can refine them and the
heuristic consumes the refined numbers unchanged.  This module provides the
argument-size estimator (the paper's default) plus two refinement hooks that
demonstrate that orthogonality and are exercised by the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Protocol, Sequence

import numpy as np

from repro.faults.model import FailureModel, TaskFailureRates
from repro.faults.rates import FitRateSpec
from repro.runtime.task import TaskDescriptor
from repro.util.validation import check_non_negative


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


class VulnerabilityWeightedEstimator:
    """Refines a base estimator with per-task-type vulnerability weights.

    A weight below 1 models task types that mask errors (e.g. tasks dominated
    by silent stores, the paper's example); above 1 models types whose outputs
    are unusually critical.  Unknown task types use ``default_weight``.
    """

    def __init__(
        self,
        base: FailureRateEstimator,
        weights: Mapping[str, float],
        default_weight: float = 1.0,
    ) -> None:
        self.base = base
        self.weights: Dict[str, float] = {
            k: check_non_negative(v, f"weight[{k}]") for k, v in weights.items()
        }
        self.default_weight = check_non_negative(default_weight, "default_weight")

    def estimate(self, task: TaskDescriptor) -> TaskFailureRates:
        """Base rates scaled by the task type's vulnerability weight."""
        base = self.base.estimate(task)
        w = self.weights.get(task.task_type, self.default_weight)
        return TaskFailureRates(
            task_id=base.task_id,
            crash_fit=base.crash_fit * w,
            sdc_fit=base.sdc_fit * w,
        )


@dataclass
class TraceBasedEstimator:
    """Rates measured externally (e.g. from system failure logs), per task type.

    ``rates`` maps a task type to ``(crash_fit, sdc_fit)``.  Task types absent
    from the trace fall back to ``fallback`` when provided, else zero rates
    (the conservative choice would be a large rate; zero matches the "no
    evidence of failures for this code" reading of a log-derived model and is
    what the unit tests pin down).
    """

    rates: Dict[str, tuple] = field(default_factory=dict)
    fallback: Optional[FailureRateEstimator] = None

    def estimate(self, task: TaskDescriptor) -> TaskFailureRates:
        """Look the task type up in the trace, falling back when unknown."""
        if task.task_type in self.rates:
            crash, sdc = self.rates[task.task_type]
            return TaskFailureRates(
                task_id=task.task_id,
                crash_fit=check_non_negative(crash, "crash_fit"),
                sdc_fit=check_non_negative(sdc, "sdc_fit"),
            )
        if self.fallback is not None:
            return self.fallback.estimate(task)
        return TaskFailureRates(task_id=task.task_id, crash_fit=0.0, sdc_fit=0.0)
