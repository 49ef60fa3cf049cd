"""The task replication protocol of the paper's Figure 2.

For a task selected for protection the replicator:

1. checkpoints the task's inputs into the safe store,
2. creates a replica (a duplicate descriptor) and executes original and
   replica,
3. compares their results at the single end-of-task synchronisation point,
4. on inequality (an SDC), restores the checkpointed inputs and re-executes,
5. selects the majority of the three results as the task's result.

A crash (DUE) of one execution is tolerated because the other replica carries
on; if both crash, the task is restarted from its checkpoint.

In functional mode the "parallel" executions run back-to-back inside one
worker, each against the restored input state, which is behaviourally
equivalent at the task boundary (the only synchronisation point the protocol
has).  The timing consequences of true parallel replicas on spare cores are
modelled by the machine simulator instead.

Everything the protocol snapshots, compares, restores or commits is scoped to
the task's *argument regions* — never the whole backing arrays.  Together
with the injector's keyed per-execution fault streams this makes multi-worker
functional runs deterministic: concurrent tasks operating on disjoint blocks
of one registered array recover independently, and replay of a
non-idempotent ``inout`` kernel always re-runs from its restored region
bytes, so in-place updates cannot be double-applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.checkpoint import CheckpointStore
from repro.core.comparator import (
    BitwiseComparator,
    ComparisonResult,
    OutputComparator,
    majority_vote,
)
from repro.core.config import ReplicationConfig
from repro.faults.corruption import corrupt_array
from repro.faults.errors import ErrorClass, FaultEvent
from repro.faults.injector import FaultInjector
from repro.runtime.events import EventKind, EventLog
from repro.runtime.executor import task_write_views
from repro.runtime.task import TaskDescriptor
from repro.util.rng import RngStream


@dataclass
class ReplicationOutcome:
    """What happened while executing one task (protected or not)."""

    task_id: int
    protected: bool
    executions: int = 0
    crashes_seen: int = 0
    sdc_injected: int = 0
    sdc_detected: bool = False
    sdc_corrected: bool = False
    sdc_escaped: bool = False
    crash_recovered: bool = False
    fatal_crash: bool = False
    vote_performed: bool = False
    unrecovered: bool = False
    faults: List[FaultEvent] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """Whether the task completed with a correct, committed result."""
        return not self.fatal_crash and not self.sdc_escaped and not self.unrecovered


class TaskReplicator:
    """Executes tasks with (or without) the replication protocol."""

    def __init__(
        self,
        injector: Optional[FaultInjector] = None,
        comparator: Optional[OutputComparator] = None,
        checkpoints: Optional[CheckpointStore] = None,
        config: Optional[ReplicationConfig] = None,
        events: Optional[EventLog] = None,
        corruption_rng: Optional[RngStream] = None,
    ) -> None:
        self.injector = injector if injector is not None else FaultInjector()
        self.comparator = comparator if comparator is not None else BitwiseComparator()
        self.checkpoints = checkpoints if checkpoints is not None else CheckpointStore()
        self.config = config if config is not None else ReplicationConfig()
        self.events = events if events is not None else EventLog()
        self.corruption_rng = corruption_rng if corruption_rng is not None else RngStream(7)

    # -- low-level helpers -----------------------------------------------------

    @staticmethod
    def _output_views(task: TaskDescriptor) -> List[np.ndarray]:
        """Views of exactly the byte ranges the task writes (deduplicated).

        Region-scoped on purpose: snapshots, comparisons and commits must not
        read or write bytes owned by other tasks that may run concurrently on
        different blocks of the same backing array.
        """
        return task_write_views(task)

    def _snapshot_outputs(self, task: TaskDescriptor) -> List[np.ndarray]:
        """Copies of the task's current output region bytes."""
        return [np.copy(view) for view in self._output_views(task)]

    def _commit_outputs(self, task: TaskDescriptor, snapshot: Sequence[np.ndarray]) -> None:
        """Write a snapshot back into the task's output regions."""
        for dst, src in zip(self._output_views(task), snapshot):
            np.copyto(dst, src)

    def _execute_once(
        self,
        task: TaskDescriptor,
        invoke: Callable[[TaskDescriptor], Any],
        execution_index: int,
        outcome: ReplicationOutcome,
    ) -> Tuple[Optional[List[np.ndarray]], bool]:
        """Run the task body once with fault injection.

        Returns ``(output_snapshot, crashed)``.  A crashed execution produces no
        snapshot.  An SDC corrupts the produced outputs (storage and snapshot).
        """
        faults = self.injector.draw(task, execution_index=execution_index)
        outcome.faults.extend(faults)
        outcome.executions += 1
        crash = any(f.error_class is ErrorClass.DUE for f in faults)
        sdc = any(f.error_class is ErrorClass.SDC for f in faults)
        if crash:
            outcome.crashes_seen += 1
            self.events.record(
                EventKind.CRASH_DETECTED, task_id=task.task_id, execution=execution_index
            )
            return None, True
        invoke(task)
        if sdc:
            outcome.sdc_injected += 1
            outputs = self._output_views(task)
            if outputs:
                # Corruption content comes from the keyed per-execution lane of
                # the injector, so *which bits* an escaped SDC flips is as
                # deterministic as whether the SDC was injected.  The shared
                # sequential ``corruption_rng`` remains only as a fallback for
                # custom injectors without keyed streams.
                stream_for = getattr(self.injector, "corruption_stream", None)
                rng = (
                    stream_for(task.task_id, execution_index)
                    if stream_for is not None
                    else self.corruption_rng
                )
                target = outputs[rng.integers(0, len(outputs))]
                if target.size:
                    corrupt_array(target, rng)
        return self._snapshot_outputs(task), False

    # -- unprotected execution --------------------------------------------------

    def execute_unprotected(
        self, task: TaskDescriptor, invoke: Callable[[TaskDescriptor], Any]
    ) -> ReplicationOutcome:
        """Run the task once with no protection (no checkpoint, no replica)."""
        outcome = ReplicationOutcome(task_id=task.task_id, protected=False)
        snapshot, crashed = self._execute_once(task, invoke, 0, outcome)
        if crashed:
            # Without replication or a checkpoint the failure is not masked:
            # it would take the application down (a DUE) — record it as fatal.
            outcome.fatal_crash = True
            self.events.record(EventKind.CRASH_FATAL, task_id=task.task_id)
        elif outcome.sdc_injected:
            # The corruption goes unnoticed: silent wrong results.
            outcome.sdc_escaped = True
            self.events.record(EventKind.SDC_UNDETECTED, task_id=task.task_id)
        return outcome

    # -- protected execution -----------------------------------------------------

    def execute_protected(
        self, task: TaskDescriptor, invoke: Callable[[TaskDescriptor], Any]
    ) -> ReplicationOutcome:
        """Run the task under the full replication protocol."""
        outcome = ReplicationOutcome(task_id=task.task_id, protected=True)

        if self.config.checkpoint_inputs:
            self.checkpoints.capture(task)
            self.events.record(
                EventKind.CHECKPOINT_TAKEN, task_id=task.task_id, bytes=task.input_bytes
            )

        self.events.record(EventKind.TASK_REPLICATED, task_id=task.task_id)

        # Original execution.
        snap0, crash0 = self._execute_once(task, invoke, 0, outcome)
        # Restore pristine inputs for the replica (the real runtime gives the
        # replica its own argument copies; restoring is the sequential analogue).
        self._restore(task)
        snap1, crash1 = self._execute_once(task, invoke, 1, outcome)
        self.events.record(EventKind.REPLICA_FINISHED, task_id=task.task_id)

        candidates: List[List[np.ndarray]] = []
        if snap0 is not None:
            candidates.append(snap0)
        if snap1 is not None:
            candidates.append(snap1)

        if not candidates:
            # Both executions crashed: restart from the checkpoint.
            recovered = self._reexecute_until_success(task, invoke, outcome)
            if recovered is None:
                outcome.unrecovered = True
                outcome.fatal_crash = True
                self.events.record(EventKind.CRASH_FATAL, task_id=task.task_id)
            else:
                outcome.crash_recovered = True
                self._commit_outputs(task, recovered)
                self.events.record(EventKind.CRASH_RECOVERED, task_id=task.task_id)
            self._finish(task)
            return outcome

        if len(candidates) == 1:
            # One replica crashed; the survivor's result is the task's result.
            outcome.crash_recovered = outcome.crashes_seen > 0
            if outcome.crash_recovered:
                self.events.record(EventKind.CRASH_RECOVERED, task_id=task.task_id)
            self._commit_outputs(task, candidates[0])
            # A surviving single execution cannot be cross-checked: an SDC in it
            # escapes (matches the protocol: comparison needs two results).
            if outcome.sdc_injected and not crash0 and snap0 is candidates[0]:
                outcome.sdc_escaped = True
                self.events.record(EventKind.SDC_UNDETECTED, task_id=task.task_id)
            elif outcome.sdc_injected and not crash1 and snap1 is candidates[0]:
                outcome.sdc_escaped = True
                self.events.record(EventKind.SDC_UNDETECTED, task_id=task.task_id)
            self._finish(task)
            return outcome

        # Both executions completed: the single synchronisation point.
        if not self.config.compare_outputs:
            self._commit_outputs(task, candidates[1])
            if outcome.sdc_injected:
                outcome.sdc_escaped = True
                self.events.record(EventKind.SDC_UNDETECTED, task_id=task.task_id)
            self._finish(task)
            return outcome

        result = self.comparator.compare(candidates[0], candidates[1])
        self.events.record(
            EventKind.COMPARISON_PERFORMED,
            task_id=task.task_id,
            result=result.value,
        )
        if result is ComparisonResult.MATCH:
            self._commit_outputs(task, candidates[1])
            # Identical corruption of both executions is the (vanishingly rare)
            # escape mode of duplex comparison.
            if outcome.sdc_injected >= 2:
                outcome.sdc_escaped = True
                self.events.record(EventKind.SDC_UNDETECTED, task_id=task.task_id)
            self._finish(task)
            return outcome

        # Mismatch: an SDC occurred in one of the executions.
        outcome.sdc_detected = True
        self.events.record(EventKind.SDC_DETECTED, task_id=task.task_id)

        if not self.config.vote_on_mismatch:
            outcome.unrecovered = True
            self._finish(task)
            return outcome

        reexec = self._reexecute_until_success(task, invoke, outcome)
        if reexec is None:
            outcome.unrecovered = True
            self._finish(task)
            return outcome
        candidates.append(reexec)

        vote = majority_vote(candidates, self.comparator)
        outcome.vote_performed = True
        self.events.record(
            EventKind.VOTE_PERFORMED,
            task_id=task.task_id,
            resolved=vote.resolved,
        )
        if vote.resolved:
            self._commit_outputs(task, candidates[vote.winner_index])
            outcome.sdc_corrected = True
            self.events.record(EventKind.SDC_CORRECTED, task_id=task.task_id)
        else:
            outcome.unrecovered = True
        self._finish(task)
        return outcome

    # -- recovery helpers ---------------------------------------------------------

    def _restore(self, task: TaskDescriptor) -> None:
        """Roll the task's inputs back from their checkpoints before a re-run."""
        if self.config.checkpoint_inputs:
            restored = self.checkpoints.restore(task)
            if restored:
                self.events.record(EventKind.CHECKPOINT_RESTORED, task_id=task.task_id)

    def _reexecute_until_success(
        self,
        task: TaskDescriptor,
        invoke: Callable[[TaskDescriptor], Any],
        outcome: ReplicationOutcome,
    ) -> Optional[List[np.ndarray]]:
        """Restore + re-execute, tolerating crashes up to the configured limit."""
        for attempt in range(self.config.max_reexecutions + 1):
            self._restore(task)
            self.events.record(
                EventKind.REEXECUTION, task_id=task.task_id, attempt=attempt
            )
            snapshot, crashed = self._execute_once(
                task, invoke, execution_index=2 + attempt, outcome=outcome
            )
            if not crashed and snapshot is not None:
                return snapshot
        return None

    def _finish(self, task: TaskDescriptor) -> None:
        """Release the task's checkpoints once its result is accepted."""
        if self.config.checkpoint_inputs:
            self.checkpoints.release(task.task_id)
