"""Replay a task graph against a machine model.

The simulator performs event-driven list scheduling of a
:class:`~repro.runtime.graph.TaskGraph`:

* tasks become *ready* when every predecessor has finished (plus inter-node
  communication delay for edges that cross nodes),
* ready tasks start as soon as a worker core of their node is free (FIFO in
  submission order, matching the runtime's default scheduler),
* a task selected for replication additionally occupies a spare core for its
  replica ("task replicas are executed on spare cores"); the checkpoint,
  replica execution and output comparison run on the spare core, so the worker
  core only pays the (tiny) decision and replica-creation costs — but the
  task's *completion* (the moment dependent tasks may start) waits for the
  comparison, exactly as in the paper's design,
* per-node memory bandwidth caps the node's aggregate throughput: a node can
  never finish faster than the total bytes its original tasks stream divided by
  its memory bandwidth (this is what keeps Stream from scaling, with or
  without replication); replicas run on the spare partition (the node's second
  socket in the Marenostrum analogy) and do not steal bandwidth from
  originals,
* injected faults extend the affected tasks with the recovery work the
  replication protocol performs (re-execution from the checkpoint, majority
  vote), or — for unprotected tasks — with a plain task restart.

The model is deliberately simple (bandwidth shares are evaluated at task start
rather than continuously), which is sufficient to reproduce the *shape* of the
paper's Figures 4-6.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.runtime.compiled import edge_comm_bytes
from repro.runtime.graph import TaskGraph
from repro.runtime.task import TaskDescriptor
from repro.simulator.costs import ReplicationCostModel
from repro.simulator.engine import EventQueue
from repro.simulator.machine import MachineSpec
from repro.util.rng import RngStream
from repro.util.validation import check_probability


@dataclass
class SimulationConfig:
    """What to simulate."""

    #: Ids of tasks to replicate; ``None`` means replicate nothing and the
    #: string ``"all"`` (via :meth:`replicate_all`) selects every task.
    #: Any iterable of ids is accepted and normalised to a ``frozenset`` so
    #: membership tests stay O(1) (a list-valued config used to make the fast
    #: path's per-task ``in`` scan O(n·m)) and so the value is hashable for
    #: the replay-array memos.
    replicated_ids: Optional[Set[int]] = None
    replicate_all: bool = False
    costs: ReplicationCostModel = field(default_factory=ReplicationCostModel)
    #: Per-execution crash probability (the paper's "per task fixed fault rates").
    crash_probability: float = 0.0
    #: Per-execution silent-corruption probability.
    sdc_probability: float = 0.0
    #: Whether the per-node memory-bandwidth throughput cap is modelled.
    model_memory_contention: bool = True
    #: Seed for the fault draws.  The simulator deliberately keeps a
    #: *sequential* stream (unlike the functional injector's keyed
    #: per-execution streams): the event loop is single-threaded and replays
    #: tasks in a deterministic order, so draws are already reproducible, and
    #: the vectorized fast path consumes the identical uniform sequence in
    #: chunks — bit-identity between the two (and with the committed goldens)
    #: depends on this draw discipline staying put.
    seed: int = 0
    #: Whether per-task :class:`SimulatedTaskRecord` objects are materialised.
    #: The experiment drivers only consume the aggregate numbers and switch
    #: this off; the scalar reference path always collects.
    collect_records: bool = True

    def __post_init__(self) -> None:
        check_probability(self.crash_probability, "crash_probability")
        check_probability(self.sdc_probability, "sdc_probability")
        if self.replicated_ids is not None and not isinstance(self.replicated_ids, frozenset):
            self.replicated_ids = frozenset(self.replicated_ids)

    def is_replicated(self, task_id: int) -> bool:
        """Whether a task is selected for replication in this simulation."""
        if self.replicate_all:
            return True
        return self.replicated_ids is not None and task_id in self.replicated_ids


@dataclass
class SimulatedTaskRecord:
    """Timing record of one task in a simulation."""

    task_id: int
    node: int
    start_s: float
    finish_s: float
    replicated: bool
    base_duration_s: float
    overhead_s: float
    recovery_s: float

    @property
    def elapsed_s(self) -> float:
        """Total core occupancy of the task (including overheads and recovery)."""
        return self.finish_s - self.start_s


@dataclass
class SimulationResult:
    """Outcome of one simulated execution."""

    makespan_s: float
    machine: MachineSpec
    config: SimulationConfig
    records: Dict[int, SimulatedTaskRecord]
    total_work_s: float
    total_overhead_s: float
    total_recovery_s: float
    crashes_injected: int
    sdcs_injected: int
    replicated_tasks: int

    @property
    def n_tasks(self) -> int:
        """Number of simulated tasks."""
        return len(self.records)

    @property
    def replication_task_fraction(self) -> float:
        """Fraction of tasks that were replicated."""
        return self.replicated_tasks / self.n_tasks if self.n_tasks else 0.0

    def overhead_vs(self, baseline: "SimulationResult") -> float:
        """Relative makespan overhead with respect to a baseline simulation."""
        if baseline.makespan_s <= 0:
            return 0.0
        return (self.makespan_s - baseline.makespan_s) / baseline.makespan_s

    def speedup_vs(self, baseline: "SimulationResult") -> float:
        """Speedup of this run relative to a baseline run (baseline / this)."""
        if self.makespan_s <= 0:
            return 0.0
        return baseline.makespan_s / self.makespan_s


# -- internal helpers -------------------------------------------------------------

#: Canonical implementation lives with the graph-compilation subsystem so the
#: compiled per-edge payloads are the same floats this loop derives on the fly.
_edge_comm_bytes = edge_comm_bytes


class _NodeState:
    """Mutable per-node resource state during a simulation."""

    __slots__ = ("free_cores", "free_spares", "active_streams", "ready", "busy_until")

    def __init__(self, cores: int, spares: int) -> None:
        self.free_cores = cores
        self.free_spares = spares
        self.active_streams = 0
        self.ready: List[Tuple[int, int]] = []  # (submission index, task id)
        self.busy_until = 0.0


def simulate_graph(
    graph: TaskGraph,
    machine: MachineSpec,
    config: Optional[SimulationConfig] = None,
) -> SimulationResult:
    """Simulate the execution of ``graph`` on ``machine`` under ``config``."""
    config = config if config is not None else SimulationConfig()
    costs = config.costs
    rng = RngStream(config.seed)

    tasks = {t.task_id: t for t in graph.tasks()}
    submission_index = {tid: i for i, tid in enumerate(graph.task_ids())}
    n_nodes = machine.n_nodes

    def node_of(task: TaskDescriptor) -> int:
        if task.node is not None:
            return task.node % n_nodes
        if n_nodes == 1:
            return 0
        # Deterministic round-robin for distributed graphs that left placement
        # to the runtime.
        return submission_index[task.task_id] % n_nodes

    nodes = [
        _NodeState(machine.cores_per_node, machine.spare_cores_per_node)
        for _ in range(n_nodes)
    ]
    pending = {tid: graph.in_degree(tid) for tid in tasks}
    earliest: Dict[int, float] = {tid: 0.0 for tid in tasks}
    finish_time: Dict[int, float] = {}
    records: Dict[int, SimulatedTaskRecord] = {}

    crashes = 0
    sdcs = 0
    total_overhead = 0.0
    total_recovery = 0.0
    total_work = 0.0
    replicated_count = 0

    queue = EventQueue()

    # Event payloads: ("ready", task_id) and ("finish", task_id, used_spare).
    for tid, deg in pending.items():
        if deg == 0:
            queue.push(0.0, ("ready", tid))

    # Aggregate bytes streamed by original tasks per node (for the node-level
    # bandwidth throughput bound).
    node_mem_bytes = [0.0] * n_nodes

    def task_mem_bytes(task: TaskDescriptor) -> float:
        return float(task.metadata.get("mem_bytes", task.argument_bytes))

    def effective_duration(task: TaskDescriptor, node: _NodeState, extra_streams: int) -> float:
        compute = task.duration_s
        mem_bytes = task_mem_bytes(task)
        if not config.model_memory_contention or mem_bytes <= 0:
            return compute
        # Roofline per-task duration: the task can go no faster than its memory
        # traffic allows even when it runs alone on the node.
        return max(compute, mem_bytes / machine.memory_bandwidth_Bps)

    def start_task(tid: int, now: float) -> None:
        nonlocal crashes, sdcs, total_overhead, total_recovery, total_work, replicated_count
        task = tasks[tid]
        nid = node_of(task)
        node = nodes[nid]
        replicated = config.is_replicated(tid)

        node.free_cores -= 1
        use_spare = False
        if replicated:
            replicated_count += 1
            if node.free_spares > 0:
                node.free_spares -= 1
                use_spare = True

        duration = effective_duration(task, node, extra_streams=1)
        node.active_streams += 1
        if config.model_memory_contention:
            node_mem_bytes[nid] += task_mem_bytes(task)

        # Time the worker core is occupied / time until the task's result is
        # committed and dependent tasks may start.
        core_busy = costs.decision_s + duration
        completion = core_busy
        overhead = costs.decision_s
        recovery = 0.0

        if replicated:
            # The replica path: checkpoint + replica execution + comparison run
            # on the spare core; the worker core only creates the descriptor.
            core_busy += costs.replica_creation_s
            overhead += costs.replica_creation_s
            replica_path = (
                costs.checkpoint_time(task) + duration + costs.compare_time(task)
            )
            overhead += costs.checkpoint_time(task) + costs.compare_time(task)
            if not use_spare:
                # No spare core available: the replica serialises on the worker.
                core_busy += replica_path
            completion = max(core_busy, costs.replica_creation_s + replica_path)

            # Fault draws for the two redundant executions.
            crash0 = rng.bernoulli(config.crash_probability)
            crash1 = rng.bernoulli(config.crash_probability)
            sdc0 = (not crash0) and rng.bernoulli(config.sdc_probability)
            sdc1 = (not crash1) and rng.bernoulli(config.sdc_probability)
            crashes += int(crash0) + int(crash1)
            sdcs += int(sdc0) + int(sdc1)
            if crash0 and crash1:
                # Both replicas died: restart from the checkpoint.
                recovery += costs.restore_time(task) + duration
            elif (sdc0 != sdc1) and not (crash0 or crash1):
                # One corrupted result: detected by comparison, re-execute + vote.
                recovery += costs.restore_time(task) + duration + costs.vote_time(task)
            completion += recovery
        else:
            crash0 = rng.bernoulli(config.crash_probability)
            sdc0 = (not crash0) and rng.bernoulli(config.sdc_probability)
            crashes += int(crash0)
            sdcs += int(sdc0)
            if crash0:
                # Unprotected crash: the task restarts from scratch.
                recovery += duration
            core_busy += recovery
            completion = core_busy

        # The spare core is modelled as freed together with the worker core: the
        # residual comparison tail is tiny relative to task durations, and
        # freeing it later would make back-to-back waves serialise their
        # replicas spuriously whenever spares == cores.
        spare_busy = core_busy if (replicated and use_spare) else 0.0
        total_overhead += overhead
        total_recovery += recovery
        total_work += duration

        records[tid] = SimulatedTaskRecord(
            task_id=tid,
            node=nid,
            start_s=now,
            finish_s=now + completion,
            replicated=replicated,
            base_duration_s=duration,
            overhead_s=overhead,
            recovery_s=recovery,
        )
        # The spare-release event is queued before the core-release event so
        # that, at equal timestamps, a task started by the freed core already
        # sees the spare available.
        if use_spare:
            queue.push(now + spare_busy, ("spare_free", tid))
        queue.push(now + core_busy, ("free", tid))
        queue.push(now + completion, ("complete", tid))

    def try_start(nid: int, now: float) -> None:
        node = nodes[nid]
        while node.free_cores > 0 and node.ready:
            _, tid = heapq.heappop(node.ready)
            start_task(tid, now)

    def handle(now: float, payload: tuple) -> None:
        kind = payload[0]
        tid = payload[1]
        task = tasks[tid]
        nid = node_of(task)
        node = nodes[nid]
        if kind == "ready":
            heapq.heappush(node.ready, (submission_index[tid], tid))
            try_start(nid, now)
        elif kind == "free":
            node.free_cores += 1
            node.active_streams -= 1
            try_start(nid, now)
        elif kind == "spare_free":
            node.free_spares += 1
        elif kind == "complete":
            finish_time[tid] = now
            # Sorted iteration pins the tie-break order of successors that
            # become ready at the same timestamp, so runs are reproducible and
            # the vectorized fast path can match this path bit for bit.
            for succ_id in sorted(graph.successors(tid)):
                succ = tasks[succ_id]
                delay = 0.0
                if n_nodes > 1 and node_of(succ) != nid:
                    comm_bytes = _edge_comm_bytes(task, succ)
                    delay = machine.network_latency_s + comm_bytes / machine.network_bandwidth_Bps
                earliest[succ_id] = max(earliest[succ_id], now + delay)
                pending[succ_id] -= 1
                if pending[succ_id] == 0:
                    queue.push(max(now, earliest[succ_id]), ("ready", succ_id))
            try_start(nid, now)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown event {payload!r}")

    queue.run(handle)

    if len(records) != len(tasks):
        missing = len(tasks) - len(records)
        raise RuntimeError(
            f"simulation finished with {missing} unexecuted tasks; "
            "the graph probably contains a cycle"
        )

    makespan = max((r.finish_s for r in records.values()), default=0.0)
    if config.model_memory_contention and n_nodes > 0:
        # A node cannot stream more bytes per second than its memory bandwidth:
        # the makespan is at least the busiest node's aggregate traffic time.
        bandwidth_bound = max(node_mem_bytes) / machine.memory_bandwidth_Bps
        makespan = max(makespan, bandwidth_bound)
    return SimulationResult(
        makespan_s=makespan,
        machine=machine,
        config=config,
        records=records,
        total_work_s=total_work,
        total_overhead_s=total_overhead,
        total_recovery_s=total_recovery,
        crashes_injected=crashes,
        sdcs_injected=sdcs,
        replicated_tasks=replicated_count,
    )
