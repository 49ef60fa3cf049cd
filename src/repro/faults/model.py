"""Per-task and per-application failure-rate estimation (paper Section IV-A).

A task's crash rate λF(T) and SDC rate λSDC(T) are the sums over its arguments
of the argument-size-scaled node rates.  The application's ("benchmark's") FIT
is estimated the same way from the benchmark input size.  The
:class:`FailureModel` also converts FIT rates and task durations into
per-execution failure probabilities for the fault injector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.faults.rates import FitRateSpec
from repro.runtime.graph import TaskGraph
from repro.runtime.task import TaskDescriptor
from repro.util.units import fit_to_failures_per_second
from repro.util.validation import check_non_negative


@dataclass(frozen=True)
class TaskFailureRates:
    """Estimated failure rates of one task, in FIT."""

    task_id: int
    crash_fit: float
    sdc_fit: float

    @property
    def total_fit(self) -> float:
        """λF(T) + λSDC(T), the quantity Equation 1 uses."""
        return self.crash_fit + self.sdc_fit


class FailureModel:
    """Maps tasks and applications to failure rates under a :class:`FitRateSpec`."""

    def __init__(self, rate_spec: Optional[FitRateSpec] = None) -> None:
        self.rate_spec = rate_spec if rate_spec is not None else FitRateSpec()

    # -- per-task estimation --------------------------------------------------

    def task_rates(self, task: TaskDescriptor) -> TaskFailureRates:
        """λF(T) and λSDC(T) from the task's total argument size.

        Per the paper, "a task's overall failure rates are the sum of all its
        arguments' failure rates" — which, under proportional scaling, equals
        the rate for the summed argument size.
        """
        n_bytes = task.argument_bytes
        return TaskFailureRates(
            task_id=task.task_id,
            crash_fit=self.rate_spec.crash_fit_for_bytes(n_bytes),
            sdc_fit=self.rate_spec.sdc_fit_for_bytes(n_bytes),
        )

    def task_total_fit(self, task: TaskDescriptor) -> float:
        """Convenience: λF(T) + λSDC(T)."""
        return self.task_rates(task).total_fit

    def graph_rates(self, graph: TaskGraph) -> Dict[int, TaskFailureRates]:
        """Rates for every task of a graph, keyed by task id."""
        return {t.task_id: self.task_rates(t) for t in graph.tasks()}

    def graph_total_fit(self, graph: TaskGraph) -> float:
        """Sum of all task FITs — the unprotected application FIT the runtime
        bookkeeping would accumulate with no replication."""
        return sum(self.task_total_fit(t) for t in graph.tasks())

    # -- compiled-graph path ---------------------------------------------------

    def fit_array_for_bytes(self, n_bytes: np.ndarray) -> np.ndarray:
        """Total FIT per task from an argument-byte array (compiled-graph path).

        ``n_bytes[i]`` is a task's total argument size; the result equals
        ``task_total_fit`` of that task element for element — the same
        per-byte scalars and the same operation order, just without
        materialising the descriptors (compiled graphs store the byte array
        directly).
        """
        n_bytes = np.asarray(n_bytes, dtype=np.float64)
        return n_bytes * self.rate_spec.crash_fit_per_byte + n_bytes * self.rate_spec.sdc_fit_per_byte

    # -- application-level estimation ----------------------------------------

    def application_fit(self, input_bytes: float) -> float:
        """Benchmark FIT estimated from the benchmark input size (crash + SDC)."""
        return self.rate_spec.total_fit_for_bytes(
            check_non_negative(input_bytes, "input_bytes")
        )

    def application_crash_fit(self, input_bytes: float) -> float:
        """Benchmark crash FIT estimated from the benchmark input size."""
        return self.rate_spec.crash_fit_for_bytes(input_bytes)

    def application_sdc_fit(self, input_bytes: float) -> float:
        """Benchmark SDC FIT estimated from the benchmark input size."""
        return self.rate_spec.sdc_fit_for_bytes(input_bytes)

    # -- probabilities for injection -----------------------------------------

    def crash_probability(self, task: TaskDescriptor, duration_s: Optional[float] = None) -> float:
        """Probability a DUE hits one execution of ``task``.

        Uses the exponential model ``p = 1 - exp(-rate * t)`` with the rate in
        failures/second derived from the task's crash FIT and ``t`` the task's
        duration (``duration_s`` overrides the descriptor's estimate).
        """
        return self._probability(self.task_rates(task).crash_fit, task, duration_s)

    def sdc_probability(self, task: TaskDescriptor, duration_s: Optional[float] = None) -> float:
        """Probability an SDC hits one execution of ``task``."""
        return self._probability(self.task_rates(task).sdc_fit, task, duration_s)

    @staticmethod
    def _probability(fit: float, task: TaskDescriptor, duration_s: Optional[float]) -> float:
        """Poisson fault probability of one task from its FIT and duration."""
        import math

        t = task.duration_s if duration_s is None else duration_s
        if t <= 0 or fit <= 0:
            return 0.0
        rate_per_s = fit_to_failures_per_second(fit)
        return 1.0 - math.exp(-rate_per_s * t)

    def with_spec(self, rate_spec: FitRateSpec) -> "FailureModel":
        """A copy of the model under a different rate specification."""
        return FailureModel(rate_spec)
