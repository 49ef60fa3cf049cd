"""Task-input checkpointing (step 1 of the paper's replication design).

Before a protected task runs, copies of its input data are stored in a "safe
memory region" (the paper assumes checkpoint storage failure rates are
negligible).  When an SDC is detected by output comparison, the task's initial
state is restored from the checkpoint and the task is re-executed.

Checkpoints are **region-scoped**: exactly the byte ranges of the task's
``in``/``inout`` regions are saved and restored, never the whole backing
arrays.  Early versions copied whole handles, which was simpler but unsafe
with concurrent workers — a task restoring its checkpoint would clobber the
bytes a neighbouring task was concurrently writing into a *different* block
of the same registered array.  Region scoping makes restore local to the
restoring task, so crash replay can never double-apply or overwrite in-place
updates of disjoint regions.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.runtime.executor import region_key, region_view
from repro.runtime.task import Direction, TaskDescriptor


@dataclass
class TaskCheckpoint:
    """Saved pre-execution state of one task's read/written data."""

    task_id: int
    #: Copies of the byte ranges of every region the task reads (``in`` and
    #: ``inout``), keyed by ``(handle_id, offset, size)``.
    saved_regions: Dict[Tuple[int, int, int], np.ndarray] = field(default_factory=dict)
    #: Total checkpointed bytes (for cost accounting).
    n_bytes: float = 0.0


class CheckpointStore:
    """An in-memory safe store of task checkpoints."""

    def __init__(self, capacity_bytes: Optional[float] = None) -> None:
        self.capacity_bytes = capacity_bytes
        self._lock = threading.Lock()
        self._checkpoints: Dict[int, TaskCheckpoint] = {}
        self._bytes_stored = 0.0
        self.total_checkpoints_taken = 0
        self.total_restores = 0

    # -- capture ---------------------------------------------------------------

    def capture(self, task: TaskDescriptor) -> TaskCheckpoint:
        """Checkpoint the task's argument data (inputs and in-place outputs).

        Only region arguments with backing storage are copied — and only the
        bytes of each region, not its whole backing array (see the module
        docstring for why).  Simulation-only tasks produce an (empty)
        checkpoint that still tracks byte volume so cost models remain
        meaningful.
        """
        saved: Dict[Tuple[int, int, int], np.ndarray] = {}
        n_bytes = 0.0
        for arg in task.args:
            if arg.direction is Direction.VALUE or arg.region is None:
                continue
            # Output-only data need not be saved for correctness, but inout and
            # in regions must be.  (OUT regions are excluded: restoring them is
            # unnecessary and they may be uninitialised.)
            if not arg.direction.reads:
                continue
            n_bytes += arg.size_bytes
            view = region_view(arg.region)
            key = region_key(arg.region)
            if view is not None and key not in saved:
                saved[key] = np.copy(view)
        ckpt = TaskCheckpoint(task_id=task.task_id, saved_regions=saved, n_bytes=n_bytes)
        with self._lock:
            if self.capacity_bytes is not None:
                if self._bytes_stored + n_bytes > self.capacity_bytes:
                    raise MemoryError(
                        f"checkpoint store capacity exceeded: "
                        f"{self._bytes_stored + n_bytes:.0f} > {self.capacity_bytes:.0f} bytes"
                    )
            self._checkpoints[task.task_id] = ckpt
            self._bytes_stored += n_bytes
            self.total_checkpoints_taken += 1
        return ckpt

    # -- restore ----------------------------------------------------------------

    def restore(self, task: TaskDescriptor) -> bool:
        """Restore the task's input regions from its checkpoint.

        Only the checkpointed byte ranges are written back — bytes outside the
        task's own regions (e.g. neighbouring blocks of the same array, owned
        by concurrently running tasks) are never touched.  Returns ``False``
        when no checkpoint exists for the task.
        """
        with self._lock:
            ckpt = self._checkpoints.get(task.task_id)
        if ckpt is None:
            return False
        for arg in task.args:
            if arg.direction is Direction.VALUE or arg.region is None:
                continue
            view = region_view(arg.region)
            if view is None:
                continue
            saved = ckpt.saved_regions.get(region_key(arg.region))
            if saved is not None:
                np.copyto(view, saved)
        with self._lock:
            self.total_restores += 1
        return True

    # -- lifecycle ---------------------------------------------------------------

    def release(self, task_id: int) -> None:
        """Discard the checkpoint of a task that completed successfully."""
        with self._lock:
            ckpt = self._checkpoints.pop(task_id, None)
            if ckpt is not None:
                self._bytes_stored -= ckpt.n_bytes

    def has_checkpoint(self, task_id: int) -> bool:
        """Whether a checkpoint is currently stored for ``task_id``."""
        with self._lock:
            return task_id in self._checkpoints

    @property
    def bytes_stored(self) -> float:
        """Bytes currently held in the safe store."""
        with self._lock:
            return self._bytes_stored

    def __len__(self) -> int:
        with self._lock:
            return len(self._checkpoints)
