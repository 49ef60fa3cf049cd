"""Failure model substrate: error classes, FIT rates, fault injection.

The paper's failure model (Section II-A) distinguishes:

* **DCE** — detected and corrected by hardware (invisible to software, modelled
  only as a count);
* **DUE** — detected but uncorrected errors, which crash the affected task;
* **SDC** — silent data corruptions, which let the task finish with wrong
  results.

Per-task failure rates are estimated from the Roadrunner TriBlade FIT
measurements of Michalak et al. scaled proportionally to task argument sizes
(:mod:`repro.faults.rates`); the injector (:mod:`repro.faults.injector`) draws
faults against those rates, or against fixed per-task rates for the
recovery/scalability experiments of Section V-A2.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, resolved lazily on first access (see
#: :mod:`repro._lazy`): the analysis drivers use the rates/model half and
#: never pay for the injector or corruption helpers.
_EXPORTS = {
    "ErrorClass": "repro.faults.errors",
    "FaultEvent": "repro.faults.errors",
    "TaskCrashError": "repro.faults.errors",
    "SilentDataCorruption": "repro.faults.errors",
    "DEFAULT_CRASH_FIT_PER_32GIB": "repro.faults.rates",
    "DEFAULT_SDC_FIT_PER_32GIB": "repro.faults.rates",
    "ROADRUNNER_REFERENCE_BYTES": "repro.faults.rates",
    "FitRateSpec": "repro.faults.rates",
    "exascale_scenario": "repro.faults.rates",
    "FailureModel": "repro.faults.model",
    "TaskFailureRates": "repro.faults.model",
    "FaultInjector": "repro.faults.injector",
    "FaultPlan": "repro.faults.injector",
    "InjectionConfig": "repro.faults.injector",
    "corrupt_array": "repro.faults.corruption",
    "flip_random_bit": "repro.faults.corruption",
}

__getattr__, __dir__ = lazy_exports(
    __name__,
    _EXPORTS,
    submodules=("corruption", "errors", "injector", "model", "rates"),
)

__all__ = [
    "DEFAULT_CRASH_FIT_PER_32GIB",
    "DEFAULT_SDC_FIT_PER_32GIB",
    "ErrorClass",
    "FailureModel",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FitRateSpec",
    "InjectionConfig",
    "ROADRUNNER_REFERENCE_BYTES",
    "SilentDataCorruption",
    "TaskCrashError",
    "TaskFailureRates",
    "corrupt_array",
    "exascale_scenario",
    "flip_random_bit",
]
