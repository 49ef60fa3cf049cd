"""Fast path of the machine simulator, over compiled graphs.

:func:`repro.simulator.execution.simulate_graph` is the reference
implementation: a readable event loop that re-derives every per-task quantity
(costs, memory traffic, node placement) from the descriptors on each call.
The experiment drivers, however, replay the *same* graph many times — once per
fault rate and machine size — so this module splits the work:

* :class:`~repro.runtime.compiled.CompiledGraph` (produced once per graph by
  :func:`~repro.runtime.compiled.compile_graph`, usually loaded memory-mapped
  from the on-disk compiled-graph store) holds everything that depends only on
  the graph: durations, byte counts, CSR successor/predecessor indices and
  per-edge communication payloads;
* :class:`SimGraphCache` wraps a compiled graph and derives the
  machine/cost-model-dependent *replay terms* — the per-task core-occupancy,
  completion, overhead and recovery terms, folded with one NumPy pass over any
  task range (memoised over the whole graph for the C kernel);
* :func:`simulate_compiled` replays a graph either through the C kernel of
  :mod:`repro.simulator.backend` or through this module's one Python event
  loop, a flat ``heapq`` loop over primitive floats and ints that computes the
  replay terms one task chunk at a time (``$REPRO_SIM_CHUNK_TASKS``), so it
  runs out of core on memory-mapped graphs.  Fault Bernoullis come from a
  chunk-buffered NumPy stream that consumes the *same* underlying uniform
  sequence as the reference path's per-call draws.

Every arithmetic expression mirrors the reference loop operation for
operation (the replay terms are built with the same association order the
scalar code uses), and events pop in the reference's (time, sequence number)
order — a task's spare release, core release and same-time completion travel
as one event, since nothing can sort between them — so the fast path is
bit-identical to the reference, which the equivalence test suite asserts.
The experiment cells' ``fast=False`` (the CLI's ``--reference`` flag) runs
the reference instead.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from heapq import heappop, heappush
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import settings
from repro.obs.trace import active_tracer, trace_span
from repro.runtime.compiled import CompiledGraph, compile_graph
from repro.runtime.graph import TaskGraph
from repro.simulator import backend as _backends
from repro.simulator.costs import ReplicationCostModel
from repro.simulator.execution import SimulatedTaskRecord, SimulationConfig, SimulationResult
from repro.simulator.machine import MachineSpec

#: Event flags of the flat loop, as in ``_simkernel.c`` (whose header explains
#: why one event may carry ``_FREE | _SPARE | _COMPLETE``).  The heap tuples
#: are ordered by (time, sequence number) alone, as in the reference EventQueue.
_READY, _FREE, _SPARE, _COMPLETE = 0, 1, 2, 4

#: Uniform draws are buffered in chunks of this size.  ``Generator.random(n)``
#: consumes the identical double sequence as ``n`` successive
#: ``Generator.random()`` calls, so buffering keeps the fault draws
#: bit-identical to the reference path while amortising the per-call overhead.
#: (Both paths intentionally keep this sequential per-``config.seed`` stream
#: rather than the functional injector's keyed per-execution streams — see
#: ``SimulationConfig.seed``; the replay order is deterministic here, and the
#: golden artifacts pin the resulting draw sequence.)
_DRAW_CHUNK = 4096

#: Resident chunk budget of the Python replay.  The event-loop frontier visits
#: tasks roughly in topological (= dense-index) order, so a handful of chunks
#: absorbs the straddle between the started window and its predecessors.
_RESIDENT_CHUNKS = 4


def sim_chunk_tasks(n_tasks: int) -> int:
    """The replay chunk size for an ``n_tasks`` graph (``$REPRO_SIM_CHUNK_TASKS``).

    The Python replay computes (and holds) its replay terms one chunk of this
    many tasks at a time; results never depend on it.  The default, 65536, is
    small enough that the resident chunks stay in the tens of megabytes and
    large enough that the frontier of any reasonable graph rarely straddles
    more than two or three chunks.  ``<= 0`` means the whole graph is one
    chunk.
    """
    chunk = settings.get("REPRO_SIM_CHUNK_TASKS")
    return chunk if chunk > 0 else max(n_tasks, 1)


class SimGraphCache:
    """Replay-ready view of one graph: compiled arrays plus machine memos.

    Construct from a :class:`TaskGraph` (compiled on the fly) or, in worker
    processes, from a :class:`CompiledGraph` loaded memory-mapped off the
    compiled-graph store — no ``TaskGraph`` (and no Python object graph) is
    needed to simulate.
    """

    def __init__(
        self,
        graph: Optional[TaskGraph] = None,
        compiled: Optional[CompiledGraph] = None,
    ) -> None:
        if compiled is None:
            if graph is None:
                raise ValueError("SimGraphCache needs a TaskGraph or a CompiledGraph")
            compiled = compile_graph(graph)
        self.graph = graph
        self.compiled = compiled
        self.n = compiled.n
        self._node_maps_np: Dict[int, np.ndarray] = {}
        self._replay_np: Dict[
            Tuple[ReplicationCostModel, bool, float], Tuple[np.ndarray, ...]
        ] = {}
        self._static_np: Optional[Tuple[np.ndarray, ...]] = None
        self._flags_np: Dict[Tuple[bool, Optional[frozenset]], np.ndarray] = {}

    @classmethod
    def from_compiled(cls, compiled: CompiledGraph) -> "SimGraphCache":
        """A cache over a compiled graph alone (e.g. mmap-loaded by a worker)."""
        return cls(compiled=compiled)

    def node_map_np(self, n_nodes: int) -> np.ndarray:
        """Node of every task on an ``n_nodes`` machine (reference placement rule)."""
        cached = self._node_maps_np.get(n_nodes)
        if cached is None:
            if n_nodes == 1:
                cached = np.zeros(self.n, dtype=np.int64)
            else:
                attr = np.asarray(self.compiled.node_attr, dtype=np.int64)
                idx = np.arange(self.n, dtype=np.int64)
                # Same placement rule the reference applies per task:
                # (attr % n_nodes) if attr >= 0 else (i % n_nodes).
                cached = np.where(attr >= 0, attr % n_nodes, idx % n_nodes)
            cached = np.ascontiguousarray(cached, dtype=np.int64)
            self._node_maps_np[n_nodes] = cached
        return cached

    def replay_arrays(
        self,
        machine: MachineSpec,
        costs: ReplicationCostModel,
        contention: bool,
        lo: int = 0,
        hi: Optional[int] = None,
    ) -> Tuple[np.ndarray, ...]:
        """The ten per-task replay terms of tasks ``[lo, hi)``, as float64 arrays.

        Every expression reproduces the reference loop's scalar arithmetic
        with the same association order, element-wise — which is what keeps
        the replay bit-identical while moving ~15 float operations per task
        out of the event loop.  Being element-wise, the terms of a task range
        are exactly that slice of the whole graph's terms, which is what lets
        the Python loop compute them one chunk at a time.

        The tuple order matches the kernel argument order: dur, mem,
        core_busy0, rep_core_busy, completion_spare, core_busy_nospare,
        completion_nospare, overhead_rep, restore_dur, restore_dur_vote.
        """
        c = self.compiled
        durations = np.asarray(c.durations[lo:hi])
        mem_bytes = np.asarray(c.mem_bytes[lo:hi])
        input_bytes = np.asarray(c.input_bytes[lo:hi])
        output_bytes = np.asarray(c.output_bytes[lo:hi])
        checkpoint = costs.checkpoint_latency_s + input_bytes / costs.checkpoint_bandwidth_Bps
        restore = costs.restore_latency_s + input_bytes / costs.checkpoint_bandwidth_Bps
        compare = costs.compare_latency_s + output_bytes / costs.compare_bandwidth_Bps
        vote = costs.compare_latency_s + output_bytes / costs.vote_bandwidth_Bps
        if contention:
            dur = np.maximum(durations, mem_bytes / machine.memory_bandwidth_Bps)
        else:
            dur = durations
        decision_s = costs.decision_s
        creation_s = costs.replica_creation_s
        core_busy0 = decision_s + dur
        rep_core_busy = core_busy0 + creation_s
        replica_path = (checkpoint + dur) + compare
        replica_tail = creation_s + replica_path
        core_busy_nospare = rep_core_busy + replica_path
        return tuple(
            np.ascontiguousarray(a, dtype=np.float64)
            for a in (
                dur,
                mem_bytes,
                core_busy0,
                rep_core_busy,
                np.maximum(rep_core_busy, replica_tail),
                core_busy_nospare,
                np.maximum(core_busy_nospare, replica_tail),
                (decision_s + creation_s) + (checkpoint + compare),
                restore + dur,
                (restore + dur) + vote,
            )
        )

    def replay_arrays_np(
        self, machine: MachineSpec, costs: ReplicationCostModel, contention: bool
    ) -> Tuple[np.ndarray, ...]:
        """:meth:`replay_arrays` over the whole graph, memoised (the kernel's input)."""
        key = (costs, bool(contention), machine.memory_bandwidth_Bps)
        cached = self._replay_np.get(key)
        if cached is None:
            cached = self.replay_arrays(machine, costs, contention)
            self._replay_np[key] = cached
        return cached

    def static_np(self) -> Tuple[np.ndarray, ...]:
        """Graph-structure arrays the kernels index: CSR successors + degrees.

        Order matches the kernel argument order: succ_indptr, succ_indices,
        edge_bytes, in_degree.
        """
        cached = self._static_np
        if cached is None:
            c = self.compiled
            cached = (
                np.ascontiguousarray(c.succ_indptr, dtype=np.int64),
                np.ascontiguousarray(c.succ_indices, dtype=np.int64),
                np.ascontiguousarray(c.edge_bytes, dtype=np.float64),
                np.ascontiguousarray(c.in_degrees(), dtype=np.int64),
            )
            self._static_np = cached
        return cached

    def replicated_flags_np(self, config: SimulationConfig) -> np.ndarray:
        """Per-task replication flags as a uint8 array.

        ``np.isin`` over int64 task ids decides membership exactly like the
        reference loop's per-task ``tid in replicated_ids``.
        """
        key = (bool(config.replicate_all), config.replicated_ids)
        cached = self._flags_np.get(key)
        if cached is None:
            if config.replicate_all:
                cached = np.ones(self.n, dtype=np.uint8)
            elif config.replicated_ids is not None:
                ids = np.fromiter(config.replicated_ids, dtype=np.int64, count=len(config.replicated_ids))
                cached = np.ascontiguousarray(
                    np.isin(self.compiled.task_ids, ids).astype(np.uint8)
                )
            else:
                cached = np.zeros(self.n, dtype=np.uint8)
            self._flags_np[key] = cached
        return cached


def simulate_compiled(
    cache: SimGraphCache,
    machine: MachineSpec,
    config: Optional[SimulationConfig] = None,
    backend: Optional[str] = None,
) -> SimulationResult:
    """Replay a compiled graph on ``machine``; bit-identical to the reference.

    This is the entry point worker processes use: ``cache`` may wrap a
    memory-mapped :class:`~repro.runtime.compiled.CompiledGraph` with no
    ``TaskGraph`` behind it.  ``backend`` overrides the loop backend
    (``$REPRO_SIM_BACKEND``/auto otherwise — see
    :mod:`repro.simulator.backend`); every backend is bit-identical.
    """
    config = config if config is not None else SimulationConfig()
    chosen = _backends.resolve_backend(backend)
    with trace_span(
        active_tracer(), "sim.dispatch", backend=chosen.name, tasks=cache.n, lanes=1
    ):
        if chosen.name != "python" and cache.n > 0:
            return _replay_kernel_batch(cache, machine, config, [config.seed], chosen, configs=[config])[0]
        return _simulate_python(cache, machine, config)


def simulate_compiled_batch(
    cache: SimGraphCache,
    machine: MachineSpec,
    config: Optional[SimulationConfig] = None,
    seeds: Sequence[int] = (0,),
    backend: Optional[str] = None,
) -> List[SimulationResult]:
    """Replay one compiled graph for a whole batch of fault seeds.

    Seed ``seeds[j]`` becomes lane ``j`` over the shared replay arrays: the
    graph structure, per-task cost terms and replication flags are prepared
    once, each lane pre-draws its own uniform block from
    ``default_rng(SeedSequence(seed))`` — the same chunked generator sequence
    the scalar path consumes — and the C kernel replays all lanes in one
    invocation (the python backend replays them one after another).  Lane
    ``j`` is bit-identical to
    ``simulate_compiled(cache, machine, replace(config, seed=seeds[j]))``, so
    results do not depend on batch composition or seed order.

    A batch that draws nothing (crash and SDC probabilities each 0 or 1)
    comes out the same for every seed, so only ``seeds[0]`` is replayed, on
    either backend; every other lane is a copy of it with its own
    ``config.seed`` and, when records are collected, its own records.
    """
    config = config if config is not None else SimulationConfig()
    seeds = list(seeds)
    if not seeds:
        return []
    replayed = seeds[:1] if _draws_nothing(config) else seeds
    chosen = _backends.resolve_backend(backend)
    with trace_span(
        active_tracer(),
        "sim.dispatch",
        backend=chosen.name,
        tasks=cache.n,
        lanes=len(replayed),
    ):
        if chosen.name == "python" or cache.n == 0:
            results = [
                _simulate_python(cache, machine, replace(config, seed=int(s)))
                for s in replayed
            ]
        else:
            results = _replay_kernel_batch(cache, machine, config, replayed, chosen)
    return results + [_reseeded(results[0], s) for s in seeds[len(replayed):]]


def _draws_nothing(config: SimulationConfig) -> bool:
    """Whether a replay of ``config`` draws no uniform, whatever its seed.

    Draws happen only for probabilities strictly inside (0, 1): this is the
    case in which :func:`_max_draws` is 0 and :func:`_simulate_python` never
    calls its stream.
    """
    return not (0.0 < config.crash_probability < 1.0 or 0.0 < config.sdc_probability < 1.0)


def _reseeded(result: SimulationResult, seed: int) -> SimulationResult:
    """``result`` as the lane of ``seed`` in a batch that draws nothing.

    The lane gets its own config and its own copies of the task records, as
    a replay of that seed would.
    """
    return replace(
        result,
        config=replace(result.config, seed=int(seed)),
        records={tid: replace(rec) for tid, rec in result.records.items()},
    )


def _max_draws(n_replicated: int, n_plain: int, config: SimulationConfig) -> int:
    """Upper bound on uniform draws one lane can consume, chunk-rounded.

    Replicated tasks draw two crash Bernoullis and at most two SDC ones,
    plain tasks one of each; draws only happen for probabilities strictly
    inside (0, 1).  Rounding up to whole chunks mirrors the scalar buffers —
    only the consumed prefix affects results, so overdrawing is harmless.
    """
    per = 0
    if 0.0 < config.crash_probability < 1.0:
        per += 2 * n_replicated + n_plain
    if 0.0 < config.sdc_probability < 1.0:
        per += 2 * n_replicated + n_plain
    if per == 0:
        return 0
    return -(-per // _DRAW_CHUNK) * _DRAW_CHUNK


def _replay_kernel_batch(
    cache: SimGraphCache,
    machine: MachineSpec,
    config: SimulationConfig,
    seeds: Sequence[int],
    backend: "_backends.CExtBackend",
    configs: Optional[List[SimulationConfig]] = None,
) -> List[SimulationResult]:
    """Run a seed batch through the compiled kernel and assemble results."""
    n = cache.n
    n_nodes = machine.n_nodes
    n_lanes = len(seeds)
    collect = bool(config.collect_records)
    contention = bool(config.model_memory_contention)

    replay = cache.replay_arrays_np(machine, config.costs, contention)
    static = cache.static_np()
    node_of = cache.node_map_np(n_nodes)
    flags = cache.replicated_flags_np(config)
    # The kernel reads i64/double through typed pointers: hand it aligned,
    # C-contiguous arrays (a no-op for store-loaded and freshly built ones).
    arrays = tuple(
        np.require(a, requirements="CA") for a in replay + static + (node_of, flags)
    )

    n_replicated = int(flags.sum())
    draws = _max_draws(n_replicated, n - n_replicated, config)
    if draws:
        uniforms = np.empty((n_lanes, draws), dtype=np.float64)
        for j, seed in enumerate(seeds):
            np.random.default_rng(np.random.SeedSequence(int(seed))).random(out=uniforms[j])
    else:
        uniforms = np.zeros((1, 1), dtype=np.float64)

    out_scalars = np.zeros((n_lanes, 5), dtype=np.float64)
    out_counts = np.zeros((n_lanes, 5), dtype=np.int64)
    if collect:
        rec_shape = (n_lanes, n)
    else:
        rec_shape = (1, 1)
    start_at = np.zeros(rec_shape, dtype=np.float64)
    finish_at = np.zeros(rec_shape, dtype=np.float64)
    overhead_at = np.zeros(rec_shape, dtype=np.float64)
    recovery_at = np.zeros(rec_shape, dtype=np.float64)

    meta = (
        n,
        n_nodes,
        machine.cores_per_node,
        machine.spare_cores_per_node,
        machine.network_latency_s,
        machine.network_bandwidth_Bps,
        int(contention),
        int(collect),
        config.crash_probability,
        config.sdc_probability,
        config.costs.decision_s,
    )
    rc = backend.run_batch(
        n_lanes,
        meta,
        arrays,
        uniforms,
        draws,
        out_scalars,
        out_counts,
        (start_at, finish_at, overhead_at, recovery_at),
    )
    if rc != 0:
        raise RuntimeError(
            f"simulator backend {backend.name!r} failed: {_backends.kernel_error(rc)}"
        )

    if collect:
        shared = (replay[0].tolist(), node_of.tolist(), (flags != 0).tolist())

    results: List[SimulationResult] = []
    for j, seed in enumerate(seeds):
        if configs is not None:
            lane_config = configs[j]
        else:
            lane_config = replace(config, seed=int(seed))
        if collect:
            record_arrays: Optional[Tuple[List, ...]] = (
                start_at[j].tolist(),
                finish_at[j].tolist(),
                overhead_at[j].tolist(),
                recovery_at[j].tolist(),
            ) + shared
        else:
            record_arrays = None
        scalars = out_scalars[j]
        counts = out_counts[j]
        results.append(
            _finish(
                cache,
                machine,
                lane_config,
                int(counts[3]),
                float(scalars[0]),
                float(scalars[4]),
                (
                    float(scalars[1]),
                    float(scalars[2]),
                    float(scalars[3]),
                    int(counts[0]),
                    int(counts[1]),
                    int(counts[2]),
                ),
                record_arrays,
            )
        )
    return results


def _finish(
    cache: SimGraphCache,
    machine: MachineSpec,
    config: SimulationConfig,
    n_started: int,
    makespan: float,
    max_node_mem: float,
    totals: Tuple[float, float, float, int, int, int],
    record_arrays: Optional[Tuple[List, ...]],
) -> SimulationResult:
    """Assemble the :class:`SimulationResult` of the Python loop or a kernel lane.

    ``record_arrays`` holds, in dense index order, every task's start,
    finish, overhead, recovery, base duration, node and replication flag.
    """
    n = cache.n
    if n_started != n:
        raise RuntimeError(
            f"simulation finished with {n - n_started} unexecuted tasks; "
            "the graph probably contains a cycle"
        )
    total_work, total_overhead, total_recovery, crashes, sdcs, replicated_count = totals
    records: Dict[int, SimulatedTaskRecord] = {}
    if record_arrays is not None:
        for tid, start, finish, overhead, recovery, duration, node, replicated in zip(
            cache.compiled.task_ids.tolist(), *record_arrays
        ):
            records[tid] = SimulatedTaskRecord(
                task_id=tid,
                node=node,
                start_s=start,
                finish_s=finish,
                replicated=replicated,
                base_duration_s=duration,
                overhead_s=overhead,
                recovery_s=recovery,
            )
    if config.model_memory_contention:
        bandwidth_bound = max_node_mem / machine.memory_bandwidth_Bps
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


def _flat(a: np.ndarray, dtype: type) -> memoryview:
    """``a`` as a flat, indexable memoryview of ``dtype`` items.

    No copy when ``a`` is already a contiguous ``dtype`` array.  Arrays
    memory-mapped from the compiled-graph store can sit at unaligned offsets,
    which NumPy exports in a buffer format memoryview cannot index; casting
    through bytes views the same memory in the native format.
    """
    a = np.ascontiguousarray(a, dtype=dtype)
    return memoryview(a).cast("B").cast(a.dtype.char)


def _uniforms(seed: int) -> Iterator[float]:
    """The reference path's uniform sequence for ``seed``, drawn in chunks."""
    rand = np.random.default_rng(np.random.SeedSequence(seed)).random
    while True:
        yield from rand(_DRAW_CHUNK).tolist()


def _simulate_python(
    cache: SimGraphCache, machine: MachineSpec, config: SimulationConfig
) -> SimulationResult:
    """The Python replay: one event loop over chunked replay terms.

    Per-task state lives in flat NumPy arrays read through memoryviews
    (pending counts, earliest-start times, node map, replication flags),
    successor rows are sliced per completion straight off the compiled
    graph's (memory-mapped) CSR, and the replay terms are computed by
    :meth:`SimGraphCache.replay_arrays` one chunk of ``$REPRO_SIM_CHUNK_TASKS``
    tasks at a time and held in a small LRU.  So it runs out of core: peak
    memory is a few numeric words per task plus the resident chunks, or
    O(n) Python objects only when ``collect_records`` asks for them.
    Every chunk size gives bit-identical results.
    """
    n = cache.n
    n_nodes = machine.n_nodes
    chunk = sim_chunk_tasks(n)
    compiled = cache.compiled
    costs = config.costs
    contention = bool(config.model_memory_contention)
    collect = config.collect_records
    decision_s = costs.decision_s
    net_latency = machine.network_latency_s
    net_bandwidth = machine.network_bandwidth_Bps

    succ_ptr = _flat(compiled.succ_indptr, np.int64)
    succ_idx = _flat(compiled.succ_indices, np.int64)
    succ_ebs = _flat(compiled.edge_bytes, np.float64)
    node_np = cache.node_map_np(n_nodes)
    flags_np = cache.replicated_flags_np(config)
    node_of = _flat(node_np, np.int64)
    flags = _flat(flags_np, np.uint8)
    in_degree = compiled.in_degrees()
    roots = np.flatnonzero(in_degree == 0).tolist()
    pending = _flat(in_degree, np.int64)
    earliest = _flat(np.zeros(n), np.float64)

    resident: "OrderedDict[int, Tuple[memoryview, ...]]" = OrderedDict()

    def chunk_terms(b: int) -> Tuple[memoryview, ...]:
        """The replay terms of chunk ``b``, computed on a miss (LRU-held)."""
        terms = resident.get(b)
        if terms is None:
            arrays = cache.replay_arrays(machine, costs, contention, b * chunk, (b + 1) * chunk)
            terms = tuple(_flat(a, np.float64) for a in arrays)
            if len(resident) >= _RESIDENT_CHUNKS:
                resident.popitem(last=False)
            resident[b] = terms
        else:
            resident.move_to_end(b)
        return terms

    p_crash = config.crash_probability
    p_sdc = config.sdc_probability
    crash_mid = 0.0 < p_crash < 1.0
    crash_hi = p_crash >= 1.0
    sdc_mid = 0.0 < p_sdc < 1.0
    sdc_hi = p_sdc >= 1.0
    draw = _uniforms(config.seed).__next__

    free_cores = [machine.cores_per_node] * n_nodes
    free_spares = [machine.spare_cores_per_node] * n_nodes
    node_ready: List[List[int]] = [[] for _ in range(n_nodes)]
    node_mem = [0.0] * n_nodes

    crashes = 0
    sdcs = 0
    total_overhead = 0.0
    total_recovery = 0.0
    total_work = 0.0
    replicated_count = 0
    n_started = 0
    makespan = 0.0

    if collect:
        start_at = [0.0] * n
        finish_at = [0.0] * n
        overhead_at = [0.0] * n
        recovery_at = [0.0] * n
        dur_at = [0.0] * n

    heap: List[Tuple[float, int, int, int]] = [
        (0.0, seq, _READY, i) for seq, i in enumerate(roots)
    ]
    seq = len(heap)
    cur = lo = -1

    with trace_span(active_tracer(), "sim.stream", tasks=n, chunk=chunk):
        while heap:
            now, _, kind, i = heappop(heap)
            nid = node_of[i]
            if kind == _READY:
                heappush(node_ready[nid], i)
            elif kind & _FREE:
                if kind & _SPARE:
                    free_spares[nid] += 1
                free_cores[nid] += 1

            # try_start(nid): drain the node's ready heap while cores are free
            # (a lone completion cannot start anything: see _simkernel.c).
            ready = node_ready[nid]
            while kind != _COMPLETE and free_cores[nid] > 0 and ready:
                t = heappop(ready)
                free_cores[nid] -= 1
                b = t // chunk
                if b != cur:
                    cur = b
                    lo = b * chunk
                    (
                        dur,
                        mem,
                        core_busy0,
                        rep_core_busy,
                        completion_spare,
                        core_busy_nospare,
                        completion_nospare,
                        overhead_rep,
                        restore_dur,
                        restore_dur_vote,
                    ) = chunk_terms(cur)
                k = t - lo
                if flags[t]:
                    replicated_count += 1
                    if free_spares[nid] > 0:
                        free_spares[nid] -= 1
                        release_kind = _FREE | _SPARE
                        core_busy = rep_core_busy[k]
                        completion = completion_spare[k]
                    else:
                        release_kind = _FREE
                        core_busy = core_busy_nospare[k]
                        completion = completion_nospare[k]
                    crash0 = draw() < p_crash if crash_mid else crash_hi
                    crash1 = draw() < p_crash if crash_mid else crash_hi
                    sdc0 = not crash0 and (draw() < p_sdc if sdc_mid else sdc_hi)
                    sdc1 = not crash1 and (draw() < p_sdc if sdc_mid else sdc_hi)
                    crashes += crash0 + crash1
                    sdcs += sdc0 + sdc1
                    if crash0 and crash1:
                        recovery = restore_dur[k]
                        completion += recovery
                        total_recovery += recovery
                    elif (sdc0 != sdc1) and not (crash0 or crash1):
                        recovery = restore_dur_vote[k]
                        completion += recovery
                        total_recovery += recovery
                    else:
                        recovery = 0.0
                    overhead = overhead_rep[k]
                else:
                    release_kind = _FREE
                    crash0 = draw() < p_crash if crash_mid else crash_hi
                    sdc0 = not crash0 and (draw() < p_sdc if sdc_mid else sdc_hi)
                    crashes += crash0
                    sdcs += sdc0
                    if crash0:
                        recovery = dur[k]
                        core_busy = core_busy0[k] + recovery
                        total_recovery += recovery
                    else:
                        recovery = 0.0
                        core_busy = core_busy0[k]
                    completion = core_busy
                    overhead = decision_s

                total_overhead += overhead
                total_work += dur[k]
                if contention:
                    node_mem[nid] += mem[k]
                finish = now + completion
                if finish > makespan:
                    makespan = finish
                if collect:
                    start_at[t] = now
                    finish_at[t] = finish
                    overhead_at[t] = overhead
                    recovery_at[t] = recovery
                    dur_at[t] = dur[k]
                n_started += 1
                # One event releases the spare, then the core, and completes
                # the task too when it finishes at the release time.
                release = now + core_busy
                if finish == release:
                    heappush(heap, (release, seq, release_kind | _COMPLETE, t))
                else:
                    heappush(heap, (release, seq, release_kind, t))
                    seq += 1
                    heappush(heap, (finish, seq, _COMPLETE, t))
                seq += 1

            if kind & _COMPLETE:
                elo = succ_ptr[i]
                ehi = succ_ptr[i + 1]
                for s, eb in zip(succ_idx[elo:ehi].tolist(), succ_ebs[elo:ehi].tolist()):
                    delay = 0.0
                    if node_of[s] != nid:
                        delay = net_latency + eb / net_bandwidth
                    arrival = now + delay
                    e = earliest[s]
                    if arrival > e:
                        earliest[s] = e = arrival
                    left = pending[s] - 1
                    pending[s] = left
                    if left == 0:
                        heappush(heap, (now if now > e else e, seq, _READY, s))
                        seq += 1

    if collect:
        record_arrays: Optional[Tuple[List, ...]] = (
            start_at,
            finish_at,
            overhead_at,
            recovery_at,
            dur_at,
            node_np.tolist(),
            (flags_np != 0).tolist(),
        )
    else:
        record_arrays = None
    return _finish(
        cache,
        machine,
        config,
        n_started,
        makespan,
        max(node_mem),
        (total_work, total_overhead, total_recovery, crashes, sdcs, replicated_count),
        record_arrays,
    )

