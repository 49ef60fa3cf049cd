"""Seeded parametric DAG generators — one builder per synthetic family.

Every builder submits tasks into a :class:`~repro.runtime.runtime.TaskRuntime`
the same way the Table I benchmarks do: each task owns one simulation-only
output region and reads the whole output regions of its predecessors, so
dependencies are *inferred* by the dependency tracker (read-after-write) and
cross-task communication payloads fall out of the region overlap machinery
for free.

Determinism contract: a builder's RNG draws happen in a fixed order — per
task, structure first (predecessor selection), then the block-size draw, then
the duration draw — from a single :class:`~repro.util.rng.RngStream` seeded
by the spec's ``seed`` parameter.  Identical specs therefore produce
bit-identical graphs in any process (the workload smoke tool and the
cross-process tests pin this).

Builders always submit predecessors before their dependents, so submission
order is a topological order — the invariant the compiled-graph CSR layout
(and its test suite) relies on.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List

import numpy as np

from repro.runtime.runtime import TaskRuntime
from repro.runtime.task import DataRegion
from repro.util.rng import RngStream
from repro.workloads.spec import FAMILIES, WorkloadSpec

#: Bytes per KiB (spec block sizes are given in KiB).
_KIB = 1024.0


class _Draws:
    """The shared per-task distribution draws (bytes, then duration)."""

    def __init__(self, rng: RngStream, params: Dict[str, object]) -> None:
        self._rng = rng
        self._mean_s = float(params["mean_ms"]) * 1e-3
        self._cv = float(params["cv"])
        self._block_bytes = float(params["block_kib"]) * _KIB
        self._block_cv = float(params["block_cv"])

    def block_bytes(self) -> float:
        """Output block size of the next task (strictly positive)."""
        if self._block_cv == 0.0:
            return self._block_bytes
        return self._rng.lognormal_duration(self._block_bytes, self._block_cv)

    def duration_s(self) -> float:
        """Duration of the next task (strictly positive)."""
        return self._rng.lognormal_duration(self._mean_s, self._cv)


def _submit(
    runtime: TaskRuntime,
    draws: _Draws,
    task_type: str,
    name: str,
    preds: List[DataRegion],
    **metadata,
) -> DataRegion:
    """Register one output region, submit one task, return the region.

    The region is registered with the *drawn* block size, the task reads every
    predecessor region whole, and the duration is drawn after the block size
    (the documented draw order).
    """
    region = runtime.register_region(name, draws.block_bytes()).whole()
    runtime.submit(
        task_type=task_type,
        in_=preds,
        out=[region],
        duration_s=draws.duration_s(),
        metadata=metadata or None,
    )
    return region


def build_layered(spec: WorkloadSpec, runtime: TaskRuntime, scale: float) -> None:
    """Layered random DAG: ``depth`` layers of ``width`` tasks, fan-in <= ``fanin``."""
    p = spec.effective_params(scale)
    rng = RngStream(int(p["seed"]))
    gen = rng.generator
    depth, width, fanin = int(p["depth"]), int(p["width"]), int(p["fanin"])
    draws = _Draws(rng, p)
    prev: List[DataRegion] = []
    for layer in range(depth):
        current: List[DataRegion] = []
        for i in range(width):
            if layer == 0:
                preds: List[DataRegion] = []
            else:
                k = min(int(gen.integers(1, fanin + 1)), width)
                idx = sorted(int(j) for j in gen.choice(width, size=k, replace=False))
                preds = [prev[j] for j in idx]
            current.append(
                _submit(runtime, draws, "layered", f"L{layer}.{i}", preds, layer=layer)
            )
        prev = current


def erdos_pred_indices(
    gen: np.random.Generator, j: int, p: float, sampling: str
) -> List[int]:
    """Predecessor indices of Erdos-Renyi node ``j``, drawing from ``gen``.

    This is the single implementation both graph paths use — the object
    builder (:func:`build_erdos`) and the direct array emitter
    (:mod:`repro.workloads.direct`) — so their draw sequences can never
    diverge.  ``sampling`` selects the algorithm (a spec parameter, so it is
    part of the cache identity):

    * ``dense`` — one batched uniform per earlier task (``gen.random(j)``),
      the legacy draw order every pre-existing erdos cache key and golden was
      generated with.  O(j) per node, O(n^2) per graph: a hard wall at
      ~10^5 tasks.
    * ``skip`` — geometric inter-arrival sampling: one uniform per *edge*
      (plus one terminating draw per node), so the cost is O(edges).  The
      gap ``floor(log(1 - u) / log(1 - p))`` is the standard inverse-CDF
      geometric skip; ``1 - u`` maps ``random()``'s ``[0, 1)`` onto
      ``(0, 1]`` so the logarithm is always finite.  The gap is compared
      with the tasks left before it is truncated: at a tiny ``p`` it
      overflows to infinity, which ends the row instead of raising.
    """
    if j == 0:
        return []
    if sampling == "dense":
        mask = gen.random(j) < p
        return [i for i in range(j) if mask[i]]
    if sampling != "skip":  # pragma: no cover - spec validation rejects earlier
        raise ValueError(f"unknown erdos sampling {sampling!r}")
    if p <= 0.0:
        return []
    if p >= 1.0:
        return list(range(j))
    log_q = math.log1p(-p)
    preds: List[int] = []
    i = -1
    while True:
        u = 1.0 - gen.random()
        gap = math.log(u) / log_q
        if gap >= j - 1 - i:
            return preds
        i += 1 + int(gap)
        preds.append(i)


def build_erdos(spec: WorkloadSpec, runtime: TaskRuntime, scale: float) -> None:
    """Erdos-Renyi DAG: forward edge ``i -> j`` (i < j) with probability ``p``."""
    params = spec.effective_params(scale)
    rng = RngStream(int(params["seed"]))
    gen = rng.generator
    n, p = int(params["tasks"]), float(params["p"])
    sampling = str(params["sampling"])
    draws = _Draws(rng, params)
    regions: List[DataRegion] = []
    for j in range(n):
        preds = [regions[i] for i in erdos_pred_indices(gen, j, p, sampling)]
        regions.append(_submit(runtime, draws, "erdos", f"T{j}", preds))


def build_forkjoin(spec: WorkloadSpec, runtime: TaskRuntime, scale: float) -> None:
    """Chained fork-join stages: fork -> ``width`` workers -> join, repeated."""
    p = spec.effective_params(scale)
    rng = RngStream(int(p["seed"]))
    stages, width = int(p["stages"]), int(p["width"])
    draws = _Draws(rng, p)
    carry: List[DataRegion] = []
    for stage in range(stages):
        fork = _submit(runtime, draws, "fork", f"fork{stage}", carry, stage=stage)
        workers = [
            _submit(runtime, draws, "work", f"work{stage}.{i}", [fork], stage=stage)
            for i in range(width)
        ]
        carry = [_submit(runtime, draws, "join", f"join{stage}", workers, stage=stage)]


def build_pipeline(spec: WorkloadSpec, runtime: TaskRuntime, scale: float) -> None:
    """Software pipeline: ``(s, i)`` waits for ``(s-1, i)`` and ``(s, i-1)``."""
    p = spec.effective_params(scale)
    rng = RngStream(int(p["seed"]))
    stages, items = int(p["stages"]), int(p["items"])
    draws = _Draws(rng, p)
    grid: List[List[DataRegion]] = [[None] * items for _ in range(stages)]  # type: ignore[list-item]
    for s in range(stages):
        for i in range(items):
            preds: List[DataRegion] = []
            if s > 0:
                preds.append(grid[s - 1][i])
            if i > 0:
                preds.append(grid[s][i - 1])
            grid[s][i] = _submit(
                runtime, draws, f"stage{s}", f"P{s}.{i}", preds, stage=s, item=i
            )


def build_wavefront(spec: WorkloadSpec, runtime: TaskRuntime, scale: float) -> None:
    """Wavefront sweep: ``(i, j)`` waits for its west, north and north-west cells."""
    p = spec.effective_params(scale)
    rng = RngStream(int(p["seed"]))
    rows, cols = int(p["rows"]), int(p["cols"])
    draws = _Draws(rng, p)
    grid: List[List[DataRegion]] = [[None] * cols for _ in range(rows)]  # type: ignore[list-item]
    for i in range(rows):
        for j in range(cols):
            # Ascending task-id order (NW, N, W) so the argument list — and
            # therefore every byte-sum float — matches a trace re-import.
            preds: List[DataRegion] = []
            if i > 0 and j > 0:
                preds.append(grid[i - 1][j - 1])
            if i > 0:
                preds.append(grid[i - 1][j])
            if j > 0:
                preds.append(grid[i][j - 1])
            grid[i][j] = _submit(
                runtime, draws, "cell", f"W{i}.{j}", preds, row=i, col=j
            )


def build_mapreduce(spec: WorkloadSpec, runtime: TaskRuntime, scale: float) -> None:
    """Mapreduce rounds: maps shuffle all-to-all into reduces; reduces seed round+1."""
    p = spec.effective_params(scale)
    rng = RngStream(int(p["seed"]))
    maps, reduces, rounds = int(p["maps"]), int(p["reduces"]), int(p["rounds"])
    draws = _Draws(rng, p)
    prev_reduces: List[DataRegion] = []
    for rnd in range(rounds):
        map_regions = [
            _submit(
                runtime,
                draws,
                "map",
                f"map{rnd}.{i}",
                [prev_reduces[i % reduces]] if prev_reduces else [],
                round=rnd,
            )
            for i in range(maps)
        ]
        prev_reduces = [
            _submit(
                runtime, draws, "reduce", f"reduce{rnd}.{r}", map_regions, round=rnd
            )
            for r in range(reduces)
        ]


def build_trace(spec: WorkloadSpec, runtime: TaskRuntime, scale: float) -> None:
    """Replay an imported JSON trace (scale is ignored — the trace is fixed)."""
    from repro.workloads.trace import build_trace_graph, load_trace

    build_trace_graph(load_trace(str(spec.param("file"))), runtime)


#: Builder dispatch table (one entry per family in :data:`FAMILIES`).
BUILDERS: Dict[str, Callable[[WorkloadSpec, TaskRuntime, float], None]] = {
    "layered": build_layered,
    "erdos": build_erdos,
    "forkjoin": build_forkjoin,
    "pipeline": build_pipeline,
    "wavefront": build_wavefront,
    "mapreduce": build_mapreduce,
    "trace": build_trace,
}

assert set(BUILDERS) == set(FAMILIES), "every family needs a builder"


def build_workload(spec: WorkloadSpec, runtime: TaskRuntime, scale: float = 1.0) -> None:
    """Submit the whole workload of ``spec`` into ``runtime`` at ``scale``."""
    BUILDERS[spec.family](spec, runtime, scale)


def expected_task_count(spec: WorkloadSpec, scale: float = 1.0) -> int:
    """Exact task count of a synthetic spec without generating the graph.

    Synthetic structures are fully determined by their (scaled) parameters;
    trace counts come from the file.  Used by ``repro workloads describe`` and
    the ``input_bytes`` footprint estimate.
    """
    p = spec.effective_params(scale)
    if spec.family == "layered":
        return int(p["depth"]) * int(p["width"])
    if spec.family == "erdos":
        return int(p["tasks"])
    if spec.family == "forkjoin":
        return int(p["stages"]) * (int(p["width"]) + 2)
    if spec.family == "pipeline":
        return int(p["stages"]) * int(p["items"])
    if spec.family == "wavefront":
        return int(p["rows"]) * int(p["cols"])
    if spec.family == "mapreduce":
        return int(p["rounds"]) * (int(p["maps"]) + int(p["reduces"]))
    if spec.family == "trace":
        from repro.workloads.trace import load_trace

        return len(load_trace(str(spec.param("file"))).tasks)
    raise KeyError(f"unknown workload family {spec.family!r}")
