"""The paper's primary contribution: selective task replication with App_FIT.

Layering (bottom to top):

* :mod:`repro.core.fit` — FIT budget accounting (``current_fit``, thresholds,
  the per-decision envelope of Equation 1, audits).
* :mod:`repro.core.estimator` — the per-task failure-rate estimator protocol
  and the paper's argument-size estimator.
* :mod:`repro.core.checkpoint` / :mod:`repro.core.comparator` — the safe
  checkpoint store and the output comparators used by the replication protocol.
* :mod:`repro.core.replication` — the task replication protocol of Figure 2
  (checkpoint, replica, compare, restore + re-execute + majority vote).
* :mod:`repro.core.heuristic` / :mod:`repro.core.policies` /
  :mod:`repro.core.knapsack` — App_FIT (Equation 1) and the baseline selection
  policies it is compared against.
* :mod:`repro.core.engine` — the selective-replication engine that ties policy,
  protocol and accounting together, both as a runtime execution hook
  (functional mode) and as a decision driver over task graphs (simulation
  mode, used by the Figure 3 harness).
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, resolved lazily on first access (see
#: :mod:`repro._lazy`): decision-only consumers never import the checkpoint
#: store, comparators or the replication protocol they do not touch.
_EXPORTS = {
    "ReplicationConfig": "repro.core.config",
    "FitAccount": "repro.core.fit",
    "FitAudit": "repro.core.fit",
    "ArgumentSizeEstimator": "repro.core.estimator",
    "FailureRateEstimator": "repro.core.estimator",
    "CheckpointStore": "repro.core.checkpoint",
    "TaskCheckpoint": "repro.core.checkpoint",
    "BitwiseComparator": "repro.core.comparator",
    "ChecksumComparator": "repro.core.comparator",
    "ComparisonResult": "repro.core.comparator",
    "OutputComparator": "repro.core.comparator",
    "ToleranceComparator": "repro.core.comparator",
    "majority_vote": "repro.core.comparator",
    "ReplicationOutcome": "repro.core.replication",
    "TaskReplicator": "repro.core.replication",
    "AppFit": "repro.core.heuristic",
    "SelectionDecision": "repro.core.heuristic",
    "SelectionPolicy": "repro.core.heuristic",
    "CompleteReplication": "repro.core.policies",
    "NoReplication": "repro.core.policies",
    "RandomReplication": "repro.core.policies",
    "TopFitReplication": "repro.core.policies",
    "KnapsackOracle": "repro.core.knapsack",
    "KnapsackSolution": "repro.core.knapsack",
    "ReplicationDecisions": "repro.core.engine",
    "SelectiveReplicationEngine": "repro.core.engine",
    "decide_for_graph": "repro.core.engine",
}

__getattr__, __dir__ = lazy_exports(
    __name__,
    _EXPORTS,
    submodules=(
        "checkpoint",
        "comparator",
        "config",
        "engine",
        "estimator",
        "fit",
        "heuristic",
        "knapsack",
        "policies",
        "replication",
        "vectorized",
    ),
)

__all__ = [
    "AppFit",
    "ArgumentSizeEstimator",
    "BitwiseComparator",
    "ChecksumComparator",
    "CheckpointStore",
    "CompleteReplication",
    "ComparisonResult",
    "FailureRateEstimator",
    "FitAccount",
    "FitAudit",
    "KnapsackOracle",
    "KnapsackSolution",
    "NoReplication",
    "OutputComparator",
    "RandomReplication",
    "ReplicationConfig",
    "ReplicationDecisions",
    "ReplicationOutcome",
    "SelectionDecision",
    "SelectionPolicy",
    "SelectiveReplicationEngine",
    "TaskCheckpoint",
    "TaskReplicator",
    "ToleranceComparator",
    "TopFitReplication",
    "decide_for_graph",
    "majority_vote",
]
