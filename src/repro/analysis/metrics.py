"""Metric helpers shared by the experiment drivers and the test suite."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.core.engine import ReplicationDecisions
from repro.simulator.execution import SimulationResult


@dataclass
class AggregateReplication:
    """Average replication fractions across several benchmarks (Figure 3's "average" bars)."""

    mean_task_fraction: float
    mean_time_fraction: float
    per_benchmark: Dict[str, ReplicationDecisions] = field(default_factory=dict)

    @property
    def mean_task_percent(self) -> float:
        """Average percentage of tasks replicated."""
        return 100.0 * self.mean_task_fraction

    @property
    def mean_time_percent(self) -> float:
        """Average percentage of computation time replicated."""
        return 100.0 * self.mean_time_fraction


def aggregate_replication(decisions: Dict[str, ReplicationDecisions]) -> AggregateReplication:
    """Unweighted average of task/time replication fractions across benchmarks."""
    if not decisions:
        return AggregateReplication(0.0, 0.0, {})
    task_mean = sum(d.task_fraction for d in decisions.values()) / len(decisions)
    time_mean = sum(d.time_fraction for d in decisions.values()) / len(decisions)
    return AggregateReplication(task_mean, time_mean, dict(decisions))


@dataclass
class OverheadMeasurement:
    """Relative overhead of a protected run versus its fault-free baseline."""

    benchmark: str
    baseline_makespan_s: float
    replicated_makespan_s: float

    @property
    def overhead_fraction(self) -> float:
        """(replicated - baseline) / baseline."""
        if self.baseline_makespan_s <= 0:
            return 0.0
        return (self.replicated_makespan_s - self.baseline_makespan_s) / self.baseline_makespan_s

    @property
    def overhead_percent(self) -> float:
        """Overhead as a percentage."""
        return 100.0 * self.overhead_fraction


def overhead_percent(replicated: SimulationResult, baseline: SimulationResult) -> float:
    """Percentage overhead of one simulation relative to another."""
    return 100.0 * replicated.overhead_vs(baseline)


@dataclass
class ScalabilityCurve:
    """Speedups over a reference configuration for one benchmark and fault rate."""

    benchmark: str
    fault_rate: float
    x_values: List[int] = field(default_factory=list)
    makespans_s: List[float] = field(default_factory=list)

    @property
    def speedups(self) -> List[float]:
        """Speedup of every point relative to the first point."""
        if not self.makespans_s:
            return []
        ref = self.makespans_s[0]
        return [ref / m if m > 0 else 0.0 for m in self.makespans_s]

    @property
    def parallel_efficiency(self) -> List[float]:
        """Speedup divided by the resource ratio to the reference point."""
        if not self.x_values:
            return []
        ref = self.x_values[0]
        return [
            s / (x / ref) if x else 0.0 for s, x in zip(self.speedups, self.x_values)
        ]


def speedup_series(makespans_s: Sequence[float]) -> List[float]:
    """Speedups of a series of makespans relative to its first entry."""
    values = list(makespans_s)
    if not values:
        return []
    ref = values[0]
    return [ref / v if v > 0 else 0.0 for v in values]
