"""Configuration of the selective replication machinery."""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_probability


@dataclass
class ReplicationConfig:
    """Tunables shared by the replication protocol and the FIT accounting.

    Attributes
    ----------
    residual_fit_factor:
        Fraction of a task's FIT still charged to ``current_fit`` when the task
        *is* replicated.  The paper's accounting is only self-consistent if a
        replicated (and checkpointed) task contributes ~nothing, so the default
        is 0; setting a small value models imperfect coverage (e.g. faults in
        the comparator) and is swept by an ablation benchmark.
    max_reexecutions:
        How many times a task may be re-executed during SDC recovery before the
        engine gives up and reports an unrecovered error.
    compare_outputs:
        Whether replica outputs are compared at all (disabling this models a
        crash-only replication scheme).
    vote_on_mismatch:
        Whether a third execution plus majority vote is performed on mismatch
        (the paper's design); when disabled a mismatch only raises detection.
    checkpoint_inputs:
        Whether task inputs are checkpointed before execution (step 1 of the
        paper's Figure 2).  Required for SDC recovery.
    """

    residual_fit_factor: float = 0.0
    max_reexecutions: int = 2
    compare_outputs: bool = True
    vote_on_mismatch: bool = True
    checkpoint_inputs: bool = True

    def __post_init__(self) -> None:
        check_probability(self.residual_fit_factor, "residual_fit_factor")
        if self.max_reexecutions < 0:
            raise ValueError(
                f"max_reexecutions must be >= 0, got {self.max_reexecutions}"
            )
        if self.vote_on_mismatch and not self.checkpoint_inputs:
            raise ValueError(
                "vote_on_mismatch requires checkpoint_inputs: the re-execution "
                "needs the task's original inputs restored"
            )
