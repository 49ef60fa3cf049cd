"""The parallel experiment engine.

Every paper figure/table is a grid of *independent* cells — one benchmark at
one error-rate multiplier, one (benchmark, fault-rate) speedup curve, and so
on.  This module expresses a cell as an :class:`ExperimentSpec` (a small,
picklable value object), executes grids of them through an
:class:`ExperimentEngine`, and memoises the expensive shared inputs (generated
task graphs and their simulation caches) per worker process so each graph is
built once per run instead of once per policy x rate cell.

Key properties:

* **Determinism** — a cell's result is a pure function of its spec: the RNG
  stream is seeded from ``spec.seed`` (see :func:`derive_seed` for building
  per-cell seeds from a base seed), so results are identical for any
  ``parallelism`` and any worker scheduling order.  The determinism test suite
  pins this down.
* **Parallelism** — ``parallelism > 1`` fans cells out over a
  ``ProcessPoolExecutor``; ``parallelism <= 1`` (or a single-cell grid) runs
  inline, with the same memoisation, which is also the mode the portable
  figure drivers default to on single-core machines.
* **Fast/reference duality** — ``fast=True`` (default) routes cells through
  the vectorized fault-evaluation fast path
  (:mod:`repro.core.vectorized`, :mod:`repro.simulator.fastpath`);
  ``fast=False`` runs the scalar reference implementations.  The benchmark
  harness exposes this as the ``--reference`` escape hatch and the
  ``REPRO_REFERENCE=1`` environment variable; ``REPRO_PARALLELISM`` overrides
  the default worker count.
* **Cell-level caching** — because a cell is a pure function of its spec, an
  engine given a :class:`~repro.analysis.store.ResultStore` consults it
  before dispatching: cached cells are returned without computation (and
  without touching the pool), freshly computed ones are persisted, so
  re-runs are incremental and interrupted grids resume where they stopped.
  ``force=True`` recomputes (and overwrites) everything; a ``progress``
  callback observes every cell with its hit/miss disposition.  See
  :mod:`repro.analysis.store` for the content-addressing scheme and the
  ``repro cache`` CLI for maintenance.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps import create_benchmark
from repro.apps.base import Benchmark
from repro.obs.metrics import inc as metrics_inc
from repro.obs.metrics import observe as metrics_observe
from repro.obs.trace import active_tracer, configure_trace_root, trace_span
from repro.runtime.compiled import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    GRAPH_CACHE_ENV,
    CompiledGraphStore,
    compile_graph,
)
from repro.runtime.graph import TaskGraph
from repro.simulator.fastpath import SimGraphCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store imports us)
    from repro.analysis.store import ResultStore

# ---------------------------------------------------------------------------------
# defaults / configuration
# ---------------------------------------------------------------------------------

_DEFAULTS: Dict[str, Any] = {"fast": None, "parallelism": None}

_GRAPH_CACHE: Dict[str, Any] = {"enabled": None, "root": None}


def configure_defaults(
    fast: Optional[bool] = None, parallelism: Optional[int] = None
) -> None:
    """Set process-wide defaults for drivers called without explicit knobs.

    The benchmark harness's ``--reference`` flag calls
    ``configure_defaults(fast=False, parallelism=1)`` so every driver in the
    session runs the scalar reference path serially.
    """
    _DEFAULTS["fast"] = fast
    _DEFAULTS["parallelism"] = parallelism


def configure_graph_cache(
    enabled: Optional[bool] = None, root: Optional[str] = None
) -> None:
    """Set the process-wide on-disk compiled-graph cache configuration.

    ``enabled=None`` defers to the ``REPRO_GRAPH_CACHE`` environment variable
    (and the caller-supplied fallback of :func:`graph_cache_enabled`); the CLI
    turns the cache on explicitly and ``--no-graph-cache`` turns it off.  The
    in-process compiled memo is dropped on reconfiguration so graphs never
    leak across cache roots.
    """
    _GRAPH_CACHE["enabled"] = enabled
    _GRAPH_CACHE["root"] = root
    _COMPILED_CACHE.clear()


def env_graph_cache_enabled(fallback: bool) -> bool:
    """Resolve ``REPRO_GRAPH_CACHE`` alone (no process-wide pin consulted).

    ``fallback`` applies when the variable is unset — ``False`` for plain
    library calls (tests and ad-hoc driver use leave no cache directories
    behind), ``True`` for the CLI, which shares compiled graphs across
    processes and invocations by default.
    """
    env = os.environ.get(GRAPH_CACHE_ENV)
    if env is not None:
        return env.strip().lower() not in ("0", "false", "no", "")
    return fallback


def graph_cache_enabled(fallback: bool = False) -> bool:
    """Whether compiled graphs are persisted to (and loaded from) disk.

    Precedence: :func:`configure_graph_cache`, then ``REPRO_GRAPH_CACHE``,
    then ``fallback``.
    """
    if _GRAPH_CACHE["enabled"] is not None:
        return bool(_GRAPH_CACHE["enabled"])
    return env_graph_cache_enabled(fallback)


def graph_cache_root() -> str:
    """Cache root the compiled-graph store lives under (shared with results)."""
    root = _GRAPH_CACHE["root"]
    if root:
        return str(root)
    return os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR


#: Environment switch for direct spec→CompiledGraph generation of workloads
#: (``repro.workloads.direct``).  On by default: the direct path is pinned
#: byte-identical to lowering an object graph, so cache keys *and* cache
#: contents are unchanged — the switch exists to fall back to the object
#: path when diagnosing a suspected generator divergence.
DIRECT_GEN_ENV = "REPRO_DIRECT_GEN"


def direct_gen_enabled() -> bool:
    """Whether workload graphs are emitted directly to compiled arrays."""
    env = os.environ.get(DIRECT_GEN_ENV)
    if env is not None:
        return env.strip().lower() not in ("0", "false", "no", "")
    return True


def default_fast() -> bool:
    """Whether drivers use the vectorized fast path by default."""
    if _DEFAULTS["fast"] is not None:
        return bool(_DEFAULTS["fast"])
    return os.environ.get("REPRO_REFERENCE", "") not in ("1", "true", "yes")


def default_parallelism() -> int:
    """Worker count used when a driver is called without ``parallelism``."""
    if _DEFAULTS["parallelism"] is not None:
        return max(1, int(_DEFAULTS["parallelism"]))
    env = os.environ.get("REPRO_PARALLELISM")
    if env:
        return max(1, int(env))
    return max(1, os.cpu_count() or 1)


def derive_seed(base_seed: int, *parts: Any) -> int:
    """A deterministic per-spec seed from a base seed and spec key parts.

    Stable across processes and Python hash randomisation (uses SHA-256 of the
    repr of the parts), so a grid re-run with the same base seed reproduces
    every cell's stream no matter how cells are scheduled.
    """
    digest = hashlib.sha256(repr((base_seed, parts)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


# ---------------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """One independent experiment cell: a pure function of its fields.

    ``kind`` selects a registered cell function (see :func:`cell_kind`);
    ``params`` carries the kind-specific inputs as a sorted tuple of
    ``(name, value)`` pairs so specs are hashable and picklable.
    """

    kind: str
    benchmark: str
    scale: float
    seed: int = 0
    fast: bool = True
    params: Tuple[Tuple[str, Any], ...] = ()

    def param(self, name: str, default: Any = None) -> Any:
        """Look up one kind-specific parameter."""
        for key, value in self.params:
            if key == name:
                return value
        return default


def make_spec(
    kind: str,
    benchmark: str,
    scale: float,
    seed: int = 0,
    fast: bool = True,
    **params: Any,
) -> ExperimentSpec:
    """Build an :class:`ExperimentSpec` with normalised parameter ordering."""
    return ExperimentSpec(
        kind=kind,
        benchmark=benchmark,
        scale=scale,
        seed=seed,
        fast=fast,
        params=tuple(sorted(params.items())),
    )


# ---------------------------------------------------------------------------------
# per-process memoisation of generated graphs
# ---------------------------------------------------------------------------------

_BENCH_CACHE: Dict[Tuple[str, float, Optional[int]], Benchmark] = {}
_SIM_CACHES: Dict[int, SimGraphCache] = {}
_COMPILED_CACHE: Dict[Tuple[str, float, Optional[int]], SimGraphCache] = {}


def benchmark_instance(
    name: str, scale: float, n_nodes: Optional[int] = None
) -> Benchmark:
    """A memoised benchmark instance (its generated graph is cached inside).

    ``n_nodes`` selects the Figure 6 distributed variants; ``None`` is the
    registry configuration.  The memo is per process: pool workers build each
    graph at most once regardless of how many cells they execute.
    """
    key = (name, scale, n_nodes)
    bench = _BENCH_CACHE.get(key)
    if bench is None:
        if n_nodes is None:
            bench = create_benchmark(name, scale=scale)
        else:
            # Imported lazily: experiments imports this module.
            from repro.analysis.experiments import _distributed_benchmark

            bench = _distributed_benchmark(name, n_nodes, scale)
        _BENCH_CACHE[key] = bench
    return bench


def benchmark_graph(name: str, scale: float, n_nodes: Optional[int] = None) -> TaskGraph:
    """The memoised task graph of a benchmark configuration."""
    return benchmark_instance(name, scale, n_nodes).build_graph()


def sim_cache(graph: TaskGraph) -> SimGraphCache:
    """The memoised :class:`SimGraphCache` of a graph (keyed by identity)."""
    cache = _SIM_CACHES.get(id(graph))
    if cache is None:
        cache = SimGraphCache(graph)
        _SIM_CACHES[id(graph)] = cache
    return cache


def compiled_sim_cache(
    name: str, scale: float, n_nodes: Optional[int] = None
) -> SimGraphCache:
    """A replay-ready cache for a benchmark configuration, without rebuilding.

    This is how fast-path cells obtain their graph: the per-process memo is
    consulted first; on a miss, the on-disk compiled-graph store (when
    enabled) supplies the arrays memory-mapped — so pool workers *never*
    rebuild the Python task graph — and only a store miss compiles from a
    freshly generated graph (persisting the result for every later process).
    """
    key = (name, scale, n_nodes)
    cache = _COMPILED_CACHE.get(key)
    if cache is not None:
        return cache
    direct_spec = _direct_workload_spec(name, n_nodes)
    if graph_cache_enabled():
        tracer = active_tracer()
        store = CompiledGraphStore(graph_cache_root())
        with trace_span(tracer, "graph.load", benchmark=name, scale=scale) as span:
            compiled = store.load(name, scale, n_nodes)
            span.set(hit=compiled is not None)
        if compiled is None:
            if direct_spec is not None:
                from repro.workloads.direct import generate_compiled

                with trace_span(tracer, "graph.generate", benchmark=name, scale=scale):
                    t0 = time.perf_counter()
                    generated = generate_compiled(direct_spec, scale)
                    store.save(
                        direct_spec.canonical,
                        scale,
                        generated,
                        n_nodes,
                        elapsed_s=time.perf_counter() - t0,
                    )
                    del generated
                # Reload memory-mapped: the freshly written arrays are then
                # backed by the store file, not by anonymous process memory —
                # the property the out-of-core replay relies on.
                compiled = store.load(name, scale, n_nodes)
            if compiled is None:
                with trace_span(tracer, "graph.compile", benchmark=name, scale=scale):
                    t0 = time.perf_counter()
                    compiled = compile_graph(benchmark_graph(name, scale, n_nodes))
                    store.save(
                        name, scale, compiled, n_nodes, elapsed_s=time.perf_counter() - t0
                    )
        cache = SimGraphCache.from_compiled(compiled)
    elif direct_spec is not None:
        from repro.workloads.direct import generate_compiled

        with trace_span(
            active_tracer(), "graph.generate", benchmark=name, scale=scale
        ):
            cache = SimGraphCache.from_compiled(generate_compiled(direct_spec, scale))
    else:
        graph = benchmark_graph(name, scale, n_nodes)
        cache = sim_cache(graph)
    _COMPILED_CACHE[key] = cache
    return cache


def _direct_workload_spec(name: str, n_nodes: Optional[int]) -> Optional[Any]:
    """The parsed spec when ``name`` should use direct generation, else None.

    Direct emission covers workload benchmarks at their registry placement
    (``n_nodes is None`` — workload tasks carry no explicit node attribute, so
    distributed re-placements still go through the object path) and honours
    the ``REPRO_DIRECT_GEN`` kill switch.
    """
    if n_nodes is not None or not direct_gen_enabled():
        return None
    from repro.workloads import is_workload_name, parse_workload

    if not is_workload_name(name):
        return None
    return parse_workload(name)


def _pool_worker_init(graph_enabled: bool, graph_root: str) -> None:
    """Initialise one pool worker: hand it the compiled-graph cache location.

    Workers receive the *resolved* parent configuration (a cache path and an
    on/off flag, never a graph), so their :func:`compiled_sim_cache` lookups
    map the same store files the parent and their sibling workers map.  The
    trace root is pinned to the same location, so worker-side spans (cell
    compute, graph loads, simulator dispatch) land in the parent's
    ``obs/trace.jsonl``.
    """
    configure_graph_cache(enabled=graph_enabled, root=graph_root)
    configure_trace_root(graph_root)


def clear_caches() -> None:
    """Drop all memoised benchmarks and simulation caches (mainly for tests)."""
    _BENCH_CACHE.clear()
    _SIM_CACHES.clear()
    _COMPILED_CACHE.clear()


# ---------------------------------------------------------------------------------
# cell registry and execution
# ---------------------------------------------------------------------------------

_CELL_KINDS: Dict[str, Callable[[ExperimentSpec], Any]] = {}


def cell_kind(name: str) -> Callable[[Callable[[ExperimentSpec], Any]], Callable]:
    """Register a cell function under ``name`` (used by the experiment drivers)."""

    def decorate(func: Callable[[ExperimentSpec], Any]) -> Callable:
        _CELL_KINDS[name] = func
        return func

    return decorate


def run_cell(spec: ExperimentSpec) -> Any:
    """Execute one cell in the current process (module-level, hence picklable)."""
    func = _CELL_KINDS.get(spec.kind)
    if func is None:
        # A spawn-started worker has this module but not the driver module
        # whose import registers the standard cells; pull it in once.
        import repro.analysis.experiments  # noqa: F401  (registers cell kinds)

        func = _CELL_KINDS.get(spec.kind)
    if func is None:
        raise KeyError(
            f"unknown experiment kind {spec.kind!r}; known: {sorted(_CELL_KINDS)}"
        )
    return func(spec)


def _run_cell_timed(spec: ExperimentSpec, key: Optional[str]) -> Tuple[Any, float]:
    """Run one cell and measure its wall time in-process (pool map target).

    Pool workers execute this instead of bare :func:`run_cell` so per-cell
    elapsed time is measured where the cell actually runs — the parent can't
    observe it (cells overlap across workers).  The compute span is opened
    here for the same reason: the worker process owns the cell's timeline.
    ``key`` is the cell's store key (``None`` when the parent is not tracing),
    so the span chains to the parent's ``cell.put`` of the same cell.
    """
    with trace_span(
        active_tracer(),
        "cell.compute",
        key,
        cell_kind=spec.kind,
        benchmark=spec.benchmark,
    ):
        t0 = time.perf_counter()
        payload = run_cell(spec)
        return payload, time.perf_counter() - t0


@dataclass
class CellProgress:
    """One engine progress event: a cell finished (from cache or computed)."""

    spec: ExperimentSpec
    index: int
    total: int
    cached: bool
    elapsed_s: Optional[float] = None


#: Progress callback signature: called once per cell, in completion order.
ProgressCallback = Callable[[CellProgress], None]


class ExperimentEngine:
    """Executes grids of :class:`ExperimentSpec` cells, serially or in parallel.

    When constructed with a :class:`~repro.analysis.store.ResultStore`, the
    engine becomes incremental: before dispatching a grid it partitions the
    specs into cache hits (returned as-is, zero computation) and misses (run
    serially or over the process pool, then persisted).  The cumulative
    ``cells_computed`` / ``cells_cached`` counters and the per-call
    ``last_stats`` expose the split — the warm-cache tests pin
    ``cells_computed == 0`` on a second run.
    """

    def __init__(
        self,
        parallelism: Optional[int] = None,
        fast: Optional[bool] = None,
        store: Optional["ResultStore"] = None,
        force: bool = False,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        self.parallelism = (
            default_parallelism() if parallelism is None else max(1, int(parallelism))
        )
        self.fast = default_fast() if fast is None else bool(fast)
        self.store = store
        self.force = bool(force)
        self.progress = progress
        #: Cumulative counts since construction (all :meth:`map` calls).
        self.cells_computed = 0
        self.cells_cached = 0
        #: The (computed, cached) split of the most recent :meth:`map` call.
        self.last_stats: Tuple[int, int] = (0, 0)
        #: The tracer resolved by the most recent :meth:`map` call (``None``
        #: when ``REPRO_TRACE`` is off); ``_record`` reuses it for put spans.
        self._tracer = active_tracer(store.root if store is not None else None)

    def map(self, specs: Sequence[ExperimentSpec]) -> List[Any]:
        """Run every cell and return their payloads in spec order.

        With ``parallelism > 1`` the cache misses are distributed over a
        process pool; results are re-assembled in submission order, so
        callers see the same sequence for any parallelism and any cache
        temperature.
        """
        specs = list(specs)
        total = len(specs)
        payloads: List[Any] = [None] * total
        tracer = self._tracer = active_tracer(
            self.store.root if self.store is not None else None
        )

        with trace_span(
            tracer, "engine.map", cells=total, parallelism=self.parallelism
        ) as map_span:
            # Partition into cache hits and cells still to compute.
            missing: List[int] = []
            for i, spec in enumerate(specs):
                record = None
                if self.store is not None and not self.force:
                    record = self.store.get(spec)
                if record is not None:
                    payloads[i] = record.payload
                    self.cells_cached += 1
                    metrics_inc("repro_cells_cached_total")
                    self._notify(CellProgress(spec, i, total, cached=True))
                else:
                    missing.append(i)

            # Compute the misses (serially or over the pool) and persist them.
            # Store keys name the compute spans, so only a traced run needs them.
            keys = [
                self.store.key(specs[i])
                if tracer is not None and self.store is not None
                else None
                for i in missing
            ]
            workers = min(self.parallelism, len(missing))
            if workers <= 1:
                for i, key in zip(missing, keys):
                    with trace_span(
                        tracer,
                        "cell.compute",
                        key,
                        cell_kind=specs[i].kind,
                        benchmark=specs[i].benchmark,
                    ):
                        t0 = time.perf_counter()
                        payloads[i] = run_cell(specs[i])
                        elapsed = time.perf_counter() - t0
                    self._record(specs[i], payloads[i], i, total, elapsed)
            else:
                # Imported here, not at module top: single-worker runs (most CLI
                # invocations after the engine decides serially) never pay the
                # concurrent.futures/multiprocessing import.
                from concurrent.futures import ProcessPoolExecutor

                with ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_pool_worker_init,
                    initargs=(graph_cache_enabled(), graph_cache_root()),
                ) as pool:
                    # Per-cell wall time is measured inside each worker (the
                    # parent can't observe it — cells overlap across workers),
                    # so records carry the true in-process compute cost.
                    for i, (payload, elapsed) in zip(
                        missing,
                        pool.map(_run_cell_timed, [specs[i] for i in missing], keys),
                    ):
                        payloads[i] = payload
                        self._record(specs[i], payload, i, total, elapsed)

            map_span.set(computed=len(missing), cached=total - len(missing))

        self.last_stats = (len(missing), total - len(missing))
        return payloads

    def _record(
        self,
        spec: ExperimentSpec,
        payload: Any,
        index: int,
        total: int,
        elapsed: Optional[float],
    ) -> None:
        """Persist one computed cell and fire the progress callback."""
        if self.store is not None:
            key = self.store.key(spec) if self._tracer is not None else None
            with trace_span(self._tracer, "cell.put", key, cell_kind=spec.kind):
                self.store.put(spec, payload, elapsed_s=elapsed)
        self.cells_computed += 1
        metrics_inc("repro_cells_computed_total")
        if elapsed is not None:
            metrics_observe("repro_cell_compute_seconds", elapsed)
        self._notify(CellProgress(spec, index, total, cached=False, elapsed_s=elapsed))

    def _notify(self, event: CellProgress) -> None:
        """Deliver one progress event to the callback, if any."""
        if self.progress is not None:
            self.progress(event)

    def run_grid(self, specs: Sequence[ExperimentSpec]) -> List["ExperimentResult"]:
        """Like :meth:`map`, but pairs every payload with its spec."""
        payloads = self.map(specs)
        return [ExperimentResult(spec=s, payload=p) for s, p in zip(specs, payloads)]


@dataclass
class ExperimentResult:
    """One executed cell: the spec that produced it plus its payload."""

    spec: ExperimentSpec
    payload: Any = field(default=None)
