"""Layer spans recorded from outside the program, kept in memory.

:func:`install` replaces the program's public entry points with wrappers that
record one span per call: the layer name, start and end (``perf_counter_ns``,
a clock shared by every process on the machine), the calling process and
thread, and the span that was open on the same thread when the call began.
A function imported by name into other modules is replaced at every import
site, so ``repro.analysis.experiments``'s own reference to
``decide_for_compiled`` records too.  Nothing under ``src/`` changes.

Forked pool workers inherit the wrappers.  Each worker starts with an empty
buffer and appends it to ``<spans_dir>/spans-<pid>.jsonl`` after every
``run_cell``; the workload process keeps its own spans in memory and
:meth:`Tracer.collect` joins both.  :func:`layer_metrics` turns the spans
into the benchmark's per-layer metrics and :func:`chrome_trace` into a Chrome
trace-event document.
"""

from __future__ import annotations

import bisect
import functools
import glob
import importlib
import inspect
import itertools
import json
import os
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One recorded call: (layer, pid, tid, span id, parent id, t0, t1, attrs).
Span = Tuple[str, int, int, int, int, int, int, Dict[str, Any]]

#: Records attributes of one call: (function, args, kwargs, result) -> attrs.
AttrsFn = Callable[[Callable, tuple, dict, Any], Dict[str, Any]]

Interval = Tuple[int, int]


@functools.lru_cache(maxsize=None)
def _signature(fn: Callable) -> inspect.Signature:
    return inspect.signature(fn)


def _argument(fn: Callable, args: tuple, kwargs: dict, name: str) -> Any:
    """The value ``fn`` received for parameter ``name`` (or its default)."""
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _generate_attrs(fn, args, kwargs, result):
    return {"graph": f"{args[0].canonical}@{_argument(fn, args, kwargs, 'scale')}"}


def _load_attrs(fn, args, kwargs, result):
    return {"hit": result is not None}


def _decide_attrs(fn, args, kwargs, result):
    graph = args[0]
    return {"tasks": graph.n if hasattr(graph, "n") else len(graph)}


def _kernel_attrs(fn, args, kwargs, result):
    # CExtBackend.run_batch(self, n_lanes, meta, ...); meta[0] is the task count.
    return {"task_lanes": int(args[1]) * int(args[2][0])}


def _replay_attrs(fn, args, kwargs, result):
    from repro.simulator.backend import resolve_backend

    return {"backend": resolve_backend(_argument(fn, args, kwargs, "backend")).name}


def _drain_attrs(fn, args, kwargs, result):
    return {"drained": int(result)}


def _lease_attrs(fn, args, kwargs, result):
    return {"won": bool(result)}


#: The program's entry points: (module, attribute, layer, attributes recorder).
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[AttrsFn]], ...] = (
    ("repro.workloads.direct", "generate_compiled", "workloads.generate", _generate_attrs),
    ("repro.analysis.runner", "benchmark_graph", "apps.build", None),
    ("repro.runtime.compiled", "compile_graph", "runtime.compile", None),
    ("repro.runtime.compiled", "CompiledGraphStore.load", "runtime.graph_load", _load_attrs),
    ("repro.runtime.compiled", "CompiledGraphStore.save", "runtime.graph_save", None),
    ("repro.core.vectorized", "decide_for_compiled", "core.decide", _decide_attrs),
    ("repro.core.vectorized", "decide_for_graph_fast", "core.decide", _decide_attrs),
    ("repro.simulator.fastpath", "SimGraphCache.replay_arrays", "simulator.prepare", None),
    ("repro.simulator.fastpath", "SimGraphCache.replay_arrays_np", "simulator.prepare", None),
    ("repro.simulator.fastpath", "SimGraphCache.static_np", "simulator.prepare", None),
    ("repro.simulator.fastpath", "SimGraphCache.node_map_np", "simulator.prepare", None),
    ("repro.simulator.fastpath", "SimGraphCache.replicated_flags_np", "simulator.prepare", None),
    ("repro.simulator.backend", "build_kernel_lib", "simulator.kernel_build", None),
    ("repro.simulator.backend", "CExtBackend.run_batch", "simulator.kernel", _kernel_attrs),
    ("repro.simulator.fastpath", "simulate_compiled", "simulator.replay", _replay_attrs),
    ("repro.simulator.fastpath", "simulate_compiled_batch", "simulator.replay", _replay_attrs),
    ("repro.analysis.runner", "run_cell", "analysis.cell", None),
    ("repro.analysis.runner", "ExperimentEngine.map", "analysis.engine", None),
    ("repro.analysis.store", "ResultStore.get", "analysis.store_get", None),
    ("repro.analysis.store", "ResultStore.put", "analysis.store_put", None),
    ("repro.serve.jobs", "JobStore.status", "serve.status", None),
    ("repro.serve.app", "ReproServer.compose", "serve.compose", None),
    ("repro.serve.workers", "SweepWorker.run_once", "serve.drain", _drain_attrs),
    ("repro.serve.leases", "LeaseStore.acquire", "serve.lease", _lease_attrs),
)

#: The layer whose end is a pool worker's flush point.
_FLUSH_LAYER = "analysis.cell"


class Tracer:
    """Span recorder shared by every wrapper of one workload process.

    ``enabled`` is read when a call starts, so the workload loop can trace
    some operations and not others; pool workers forked mid-operation
    inherit it.
    """

    def __init__(self, spans_dir: str) -> None:
        self.spans_dir = spans_dir
        self.enabled = False
        self.spans: List[Span] = []
        self._main_pid = os.getpid()
        self._pid = self._main_pid
        self._local = threading.local()
        self._ids = itertools.count(1)
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        """A forked worker records only its own spans, as roots of its own."""
        self.spans = []
        self._pid = os.getpid()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(
        self,
        layer: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        attrs_fn: Optional[AttrsFn] = None,
    ) -> Any:
        """Run ``fn`` inside a span of ``layer`` (plainly when disabled)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        attrs: Dict[str, Any] = {}
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            if attrs_fn is not None:
                attrs = attrs_fn(fn, args, kwargs, result)
            return result
        except BaseException as exc:
            attrs = {"error": type(exc).__name__}
            raise
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append((layer, self._pid, threading.get_ident(), sid, parent, t0, t1, attrs))
            if layer == _FLUSH_LAYER and not stack and self._pid != self._main_pid:
                self.flush()

    def wrap(self, fn: Callable, layer: str, attrs_fn: Optional[AttrsFn] = None) -> Callable:
        """``fn`` with every call recorded as a span of ``layer``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(layer, fn, args, kwargs, attrs_fn)

        return wrapper

    def flush(self) -> None:
        """Append this worker's buffered spans to its spans file."""
        spans, self.spans = self.spans, []
        path = os.path.join(self.spans_dir, f"spans-{self._pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")

    def collect(self) -> List[Span]:
        """Every span of the run: this process's plus every worker's file."""
        spans = list(self.spans)
        for path in sorted(glob.glob(os.path.join(self.spans_dir, "spans-*.jsonl"))):
            with open(path, "r", encoding="utf-8") as fh:
                spans.extend(tuple(json.loads(line)) for line in fh)
        return spans


def install(tracer: Tracer) -> None:
    """Replace every entry point, at every import site, with a span wrapper."""
    by_id: Dict[int, Tuple[Callable, Callable]] = {}
    for module_name, attr_path, layer, attrs_fn in ENTRY_POINTS:
        owner: Any = importlib.import_module(module_name)
        owner_path, _, attr = attr_path.rpartition(".")
        if owner_path:
            owner = getattr(owner, owner_path)
        original = getattr(owner, attr)
        wrapper = tracer.wrap(original, layer, attrs_fn)
        setattr(owner, attr, wrapper)
        if not owner_path:
            by_id[id(original)] = (original, wrapper)
    # Modules that imported a function by name hold their own reference.
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, value in list(namespace.items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, name, hit[1])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

#: Layers whose self time is reported as a share of the traced wall time.
#: ``simulator.replay`` self time splits by backend into the pure-Python
#: event loop and the kernel dispatch (uniform draws, result assembly).
SHARE_LAYERS = (
    "workloads.generate",
    "apps.build",
    "runtime.compile",
    "runtime.graph_load",
    "runtime.graph_save",
    "core.decide",
    "simulator.kernel_build",
    "simulator.prepare",
    "simulator.kernel",
    "simulator.dispatch",
    "simulator.python_loop",
    "analysis.engine",
    "analysis.cell",
    "analysis.store_get",
    "analysis.store_put",
    "serve.http_submit",
    "serve.http_status",
    "serve.http_artifact",
    "serve.status",
    "serve.compose",
    "serve.drain",
    "serve.lease",
)


def _merge(intervals: Iterable[Interval]) -> List[Interval]:
    """Sorted, non-overlapping union of ``[t0, t1)`` intervals."""
    merged: List[Interval] = []
    for t0, t1 in sorted(intervals):
        if merged and t0 <= merged[-1][1]:
            if t1 > merged[-1][1]:
                merged[-1] = (merged[-1][0], t1)
        else:
            merged.append((t0, t1))
    return merged


def _overlap(a: List[Interval], b: List[Interval]) -> int:
    """Total length of the intersection of two merged interval lists."""
    total = i = j = 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def _inside(t: int, merged: List[Interval]) -> bool:
    k = bisect.bisect_right(merged, (t, float("inf"))) - 1
    return k >= 0 and merged[k][0] <= t < merged[k][1]


def self_times(spans: Sequence[Span]) -> List[int]:
    """Each span's duration minus its direct children's (same process)."""
    children: Dict[Tuple[int, int], int] = {}
    for layer, pid, tid, sid, parent, t0, t1, attrs in spans:
        if parent:
            children[(pid, parent)] = children.get((pid, parent), 0) + (t1 - t0)
    return [s[6] - s[5] - children.get((s[1], s[3]), 0) for s in spans]


def _share_layer(span: Span) -> str:
    if span[0] == "simulator.replay":
        return "simulator.python_loop" if span[7].get("backend") == "python" else "simulator.dispatch"
    return span[0]


def _idle_ns(drain_starts: List[int], submitted: int, end: int) -> int:
    """How long a job waited for a worker to look at the queue.

    A worker lists pending jobs when a drain pass starts, so a job waits from
    its submission until the first drain pass (sorted ``drain_starts``) that
    starts after it.
    """
    k = bisect.bisect_left(drain_starts, submitted)
    if k == len(drain_starts) or drain_starts[k] > end:
        return end - submitted
    return drain_starts[k] - submitted


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    spans: Sequence[Span],
    setups: Sequence[Interval],
    window: Sequence[Interval],
    cold_ops: int,
    jobs: Sequence[Dict[str, int]],
    overhead_ratio: float,
) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    Tracing was on during the ``setups`` and the traced ``window``
    intervals; only spans starting inside them count, and their total length
    is the wall time that shares are taken of.  Per-operation counts divide
    by ``cold_ops``, the traced cold operations.  ``jobs`` are the traced
    service jobs (``t0``, ``t1``, ``submitted``, ``polls``), set-ups
    included; none for the batch workloads.
    """
    traced = _merge(list(setups) + list(window))
    wall = sum(t1 - t0 for t0, t1 in traced) or 1
    counted = [s for s in spans if _inside(s[5], traced)]
    selfs = self_times(counted)

    busy = dict.fromkeys(SHARE_LAYERS, 0)
    for span, own in zip(counted, selfs):
        layer = _share_layer(span)
        if layer in busy:
            busy[layer] += own
    metrics = {f"{layer}_pct": 100.0 * busy[layer] / wall for layer in SHARE_LAYERS}

    def of(layer: str, within: Optional[Sequence[Interval]] = None) -> List[Span]:
        merged = _merge(within) if within is not None else traced
        return [s for s in counted if s[0] == layer and _inside(s[5], merged)]

    # A graph generated twice in one set-up (or in the window) was wasted work.
    groups = [[interval] for interval in setups] + [list(window)]
    generated = [of("workloads.generate", group) for group in groups]
    calls = sum(len(g) for g in generated)
    metrics["workloads.generate_calls"] = _ratio(sum(len(g) for g in generated[:-1]), len(setups))
    metrics["workloads.generate_useful_ratio"] = _ratio(
        sum(len({s[7]["graph"] for s in g if "graph" in s[7]}) for g in generated), calls
    )
    loads = of("runtime.graph_load")
    metrics["runtime.graph_load_hit_ratio"] = _ratio(sum(s[7].get("hit", 0) for s in loads), len(loads))
    metrics["core.decide_tasks"] = _ratio(
        sum(s[7].get("tasks", 0) for s in of("core.decide", window)), cold_ops
    )
    kernel_ns = sum(own for s, own in zip(counted, selfs) if s[0] == "simulator.kernel")
    metrics["simulator.kernel_tasks_per_s"] = _ratio(
        sum(s[7].get("task_lanes", 0) for s in of("simulator.kernel")), kernel_ns / 1e9
    )
    metrics["analysis.store_put_calls"] = _ratio(len(of("analysis.store_put", window)), cold_ops)

    drains = of("serve.drain")
    metrics["serve.drain_useful_ratio"] = _ratio(
        sum(1 for s in drains if s[7].get("drained")), len(drains)
    )
    leases = of("serve.lease")
    metrics["serve.lease_win_ratio"] = _ratio(sum(s[7].get("won", 0) for s in leases), len(leases))
    drain_starts = sorted(s[5] for s in spans if s[0] == "serve.drain")
    idle = [
        (job["submitted"], job["submitted"] + _idle_ns(drain_starts, job["submitted"], job["t1"]))
        for job in jobs
    ]
    in_window = _merge(window)
    window_jobs = [(job, wait) for job, wait in zip(jobs, idle) if _inside(job["t0"], in_window)]
    metrics["serve.idle_pct"] = 100.0 * _ratio(
        sum(t1 - t0 for _, (t0, t1) in window_jobs),
        sum(job["t1"] - job["t0"] for job, _ in window_jobs),
    )
    metrics["serve.polls_per_job"] = _ratio(
        sum(job["polls"] for job, _ in window_jobs), len(window_jobs)
    )

    # Time accounted for: inside some layer span, or (for the service) a
    # job's measured wait for a worker.
    covered = _merge([(s[5], s[6]) for s in counted] + idle)
    metrics["trace.coverage_pct"] = 100.0 * _overlap(covered, traced) / wall
    metrics["trace.overhead_ratio"] = overhead_ratio
    return metrics


def overhead(traced_ns: Sequence[int], untraced_ns: Sequence[int]) -> float:
    """Median traced over median untraced duration (0 when either is missing)."""
    if not traced_ns or not untraced_ns:
        return 0.0
    return statistics.median(traced_ns) / statistics.median(untraced_ns)


def chrome_trace(spans: Sequence[Span], ops: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """A Chrome trace-event document: one complete event per span and op."""
    base = min([s[5] for s in spans] + [op["t0"] for op in ops] or [0])
    events: List[Dict[str, Any]] = []
    for layer, pid, tid, sid, parent, t0, t1, attrs in spans:
        events.append(
            {
                "name": layer,
                "cat": layer.split(".")[0],
                "ph": "X",
                "ts": (t0 - base) / 1000.0,
                "dur": (t1 - t0) / 1000.0,
                "pid": pid,
                "tid": tid,
                "args": attrs,
            }
        )
    for op in ops:
        events.append(
            {
                "name": f"op.{op['kind']}",
                "cat": "bench",
                "ph": "X",
                "ts": (op["t0"] - base) / 1000.0,
                "dur": (op["t1"] - op["t0"]) / 1000.0,
                "pid": 0,
                "tid": 0,
                "args": {k: v for k, v in op.items() if k not in ("t0", "t1")},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
