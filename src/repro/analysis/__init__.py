"""Metrics, experiment drivers, results store and targets for the paper's evaluation.

The drivers in :mod:`repro.analysis.experiments` run on the parallel
experiment engine of :mod:`repro.analysis.runner`: each figure is a grid of
independent :class:`~repro.analysis.runner.ExperimentSpec` cells that an
:class:`~repro.analysis.runner.ExperimentEngine` executes serially or across
a process pool, with generated task graphs memoised per worker.  Every driver
accepts ``parallelism=`` and ``fast=`` knobs (``fast=False`` selects the
scalar reference implementations; see ``examples/parallel_sweep.py``) or a
pre-built ``engine=``.

Since the results-store refactor, an engine can carry a
:class:`~repro.analysis.store.ResultStore`: cell payloads are persisted as
content-addressed JSON records (keyed by a hash of the spec plus the code
version), so re-running any figure/table skips already-computed cells and
interrupted sweeps resume mid-grid — see :mod:`repro.analysis.store` for the
invariants and :mod:`repro.analysis.targets` for the named figure/table
registry the ``repro`` CLI (:mod:`repro.cli`) exposes.
"""

from repro.analysis.runner import (
    CellProgress,
    ExperimentEngine,
    ExperimentSpec,
    configure_defaults,
    derive_seed,
    make_spec,
)
from repro.analysis.store import ResultStore, StoreRecord, code_version, spec_key
from repro.analysis.metrics import (
    AggregateReplication,
    OverheadMeasurement,
    ScalabilityCurve,
    aggregate_replication,
    overhead_percent,
    speedup_series,
)
from repro.analysis.experiments import (
    ExperimentRow,
    Figure3Result,
    Figure4Result,
    ScalabilityResult,
    Table1Result,
    AblationPoliciesResult,
    RateSweepResult,
    SweepResult,
    appfit_single_benchmark,
    ablation_policies,
    ablation_rate_sweep,
    figure3_appfit,
    figure4_overheads,
    figure5_scalability_shared,
    figure6_scalability_distributed,
    sweep_policies,
    table1_benchmark_inventory,
)
from repro.analysis.report import PAPER_REFERENCE, qualitative_checks
from repro.analysis.targets import TARGETS, Target, TargetOutput, resolve_targets

__all__ = [
    "AblationPoliciesResult",
    "AggregateReplication",
    "CellProgress",
    "ExperimentEngine",
    "ExperimentRow",
    "ExperimentSpec",
    "Figure3Result",
    "Figure4Result",
    "OverheadMeasurement",
    "PAPER_REFERENCE",
    "RateSweepResult",
    "ResultStore",
    "ScalabilityCurve",
    "ScalabilityResult",
    "StoreRecord",
    "SweepResult",
    "TARGETS",
    "Table1Result",
    "Target",
    "TargetOutput",
    "ablation_policies",
    "ablation_rate_sweep",
    "aggregate_replication",
    "appfit_single_benchmark",
    "code_version",
    "configure_defaults",
    "derive_seed",
    "make_spec",
    "figure3_appfit",
    "figure4_overheads",
    "figure5_scalability_shared",
    "figure6_scalability_distributed",
    "overhead_percent",
    "qualitative_checks",
    "resolve_targets",
    "spec_key",
    "speedup_series",
    "sweep_policies",
    "table1_benchmark_inventory",
]
