"""Error classes and fault event records (paper Section II-A)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict


class ErrorClass(enum.Enum):
    """The three-way error classification used by the paper."""

    #: Detected and Corrected Error — absorbed by hardware, no software impact.
    DCE = "dce"
    #: Detected but Uncorrected Error — crashes the affected task/process.
    DUE = "due"
    #: Silent Data Corruption — undetected wrong results.
    SDC = "sdc"


class TaskCrashError(RuntimeError):
    """Raised when an injected DUE crashes a task execution."""

    def __init__(self, task_id: int, message: str = "") -> None:
        super().__init__(message or f"task {task_id} crashed (DUE)")
        self.task_id = task_id


class SilentDataCorruption(Exception):
    """Raised only in testing contexts to signal an *unmasked* SDC escaped.

    During normal operation an SDC never raises — that is what makes it silent;
    the injector corrupts output data instead.  The exception type exists so
    verification utilities can flag escapes explicitly.
    """

    def __init__(self, task_id: int, message: str = "") -> None:
        super().__init__(message or f"silent data corruption escaped from task {task_id}")
        self.task_id = task_id


@dataclass
class FaultEvent:
    """A single injected fault."""

    error_class: ErrorClass
    task_id: int
    #: Which execution of the task was hit (0 = original, 1 = replica,
    #: 2 = re-execution after SDC detection, ...).
    execution_index: int = 0
    #: Simulated time or wall-clock time of the injection, when known.
    timestamp: float = 0.0
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def is_crash(self) -> bool:
        """Whether the fault is a DUE (task crash)."""
        return self.error_class is ErrorClass.DUE

    @property
    def is_sdc(self) -> bool:
        """Whether the fault is a silent data corruption."""
        return self.error_class is ErrorClass.SDC
