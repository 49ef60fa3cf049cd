"""The parallel experiment engine.

Every paper figure/table is a grid of *independent* cells — one benchmark at
one error-rate multiplier, one (benchmark, fault-rate) speedup curve, and so
on.  This module expresses a cell as an :class:`ExperimentSpec` (a small,
picklable value object), executes grids of them through an
:class:`ExperimentEngine`, and memoises the expensive shared inputs (generated
task graphs and their simulation caches) per process.  With the on-disk
compiled-graph store on (the CLI's default), each graph is built once per
run: a parallel map builds the graphs its cells declare (see
:func:`cell_kind`) before it sends the cells, one pool task per missing graph,
and threads of one process that miss the same graph wait for one build.

Key properties:

* **Determinism** — a cell's result is a pure function of its spec: the RNG
  stream is seeded from ``spec.seed`` (see :func:`derive_seed` for building
  per-cell seeds from a base seed), so results are identical for any
  ``parallelism`` and any worker scheduling order.  The determinism test suite
  pins this down.
* **Parallelism** — ``parallelism > 1`` fans cells out over a
  ``ProcessPoolExecutor`` that the engine forks at its first parallel map
  and keeps for every later one, so workers keep their graph memos and their
  loaded C kernel across a run's grids; :meth:`ExperimentEngine.close` (or
  ``with engine:``, or dropping the engine) shuts it down.  ``parallelism
  <= 1`` (or a grid with a single miss) runs inline, with the same
  memoisation, which is also the mode the portable figure drivers default to
  on single-core machines.  Either way, consecutive cells on one graph run
  as one group, sharing what they would compute alike
  (:func:`group_shared`).
* **Fast/reference duality** — ``fast=True`` (default) routes cells through
  the compiled-graph fast path (:mod:`repro.core.vectorized`,
  :mod:`repro.simulator.fastpath`), which reads only compiled graphs;
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
import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro import settings
from repro.apps import create_benchmark
from repro.apps.base import Benchmark
from repro.obs.metrics import inc as metrics_inc
from repro.obs.metrics import observe as metrics_observe
from repro.obs.trace import Tracer, active_tracer, configure_trace_root, trace_span
from repro.runtime.compiled import CompiledGraphStore, compile_graph
from repro.runtime.graph import TaskGraph
from repro.simulator.fastpath import SimGraphCache
from repro.util.gcpause import paused_gc

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store imports us)
    from repro.analysis.store import ResultStore

T = TypeVar("T")

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


def graph_cache_enabled(fallback: bool = False) -> bool:
    """Whether compiled graphs are persisted to (and loaded from) disk.

    Precedence: :func:`configure_graph_cache`, then ``REPRO_GRAPH_CACHE``,
    then ``fallback`` — ``False`` for plain library calls (tests and ad-hoc
    driver use leave no cache directories behind), ``True`` for the CLI,
    which shares compiled graphs across processes and invocations.
    """
    if _GRAPH_CACHE["enabled"] is not None:
        return bool(_GRAPH_CACHE["enabled"])
    env = settings.get("REPRO_GRAPH_CACHE")
    return fallback if env is None else env


def graph_cache_root() -> str:
    """Cache root the compiled-graph store lives under (shared with results)."""
    root = _GRAPH_CACHE["root"]
    if root:
        return str(root)
    return settings.get("REPRO_CACHE_DIR")


def default_fast() -> bool:
    """Whether drivers use the vectorized fast path by default."""
    if _DEFAULTS["fast"] is not None:
        return bool(_DEFAULTS["fast"])
    return not settings.get("REPRO_REFERENCE")


def default_parallelism() -> int:
    """Worker count used when a driver is called without ``parallelism``."""
    if _DEFAULTS["parallelism"] is not None:
        return max(1, int(_DEFAULTS["parallelism"]))
    return settings.get("REPRO_PARALLELISM")


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

#: A graph configuration: (benchmark, scale, node count or ``None``).
GraphKey = Tuple[str, float, Optional[int]]

_BENCH_CACHE: Dict[GraphKey, Benchmark] = {}
_COMPILED_CACHE: Dict[GraphKey, SimGraphCache] = {}

#: One lock per graph key, so threads that miss the same graph wait for one
#: build; ``_LOCKS_GUARD`` serialises creating them.
_BUILD_LOCKS: Dict[GraphKey, threading.Lock] = {}
_LOCKS_GUARD = threading.Lock()


def _build_lock(key: GraphKey) -> threading.Lock:
    """The lock that serialises building one graph configuration."""
    with _LOCKS_GUARD:
        return _BUILD_LOCKS.setdefault(key, threading.Lock())


def _reset_build_locks() -> None:
    """Fresh locks in a forked child: a lock another thread held at the fork
    would stay held there forever."""
    global _LOCKS_GUARD
    _LOCKS_GUARD = threading.Lock()
    _BUILD_LOCKS.clear()


os.register_at_fork(after_in_child=_reset_build_locks)


def benchmark_instance(
    name: str, scale: float, n_nodes: Optional[int] = None
) -> Benchmark:
    """A memoised benchmark instance (its generated graph is cached inside).

    ``n_nodes`` selects the Figure 6 distributed variants; ``None`` is the
    registry configuration.  The memo is per process.  An entry, and the
    graph inside it, stays until :func:`compiled_sim_cache` has persisted
    that configuration's compiled graph; then it is dropped.
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
    """The memoised task graph of a benchmark configuration.

    Reference-path cells build it at most once per process; fast cells
    never read it.  A compile for the on-disk store builds it too, then
    drops it, so a later reference cell in the same process builds it
    again.
    """
    return benchmark_instance(name, scale, n_nodes).build_graph()


def compiled_sim_cache(
    name: str, scale: float, n_nodes: Optional[int] = None
) -> SimGraphCache:
    """A replay-ready cache for a benchmark configuration, without rebuilding.

    This is how fast-path cells obtain their graph: the per-process memo is
    consulted first; on a miss, the on-disk compiled-graph store (when
    enabled) supplies the arrays memory-mapped — so pool workers *never*
    rebuild the Python task graph — and only a store miss compiles from a
    freshly generated graph (persisting the result for every later process).
    The memo keeps the compiled form only: once it is saved, the task graph
    it came from is dropped, so a worker's memory does not grow with every
    configuration it compiles.  Without the store, the replay cache wraps
    the memoised task graph itself.

    A memo miss takes a per-key lock and checks the memo again under it, so
    threads of one process that miss the same configuration (the service's
    embedded workers) wait for one build instead of each building it.  Pool
    workers keep their memo for their engine's life; the
    :class:`ExperimentEngine` builds a map's missing store entries before it
    sends the cells that read them (see :func:`cell_kind`).

    A memo miss canonicalises a workload name first, so the memo, the lock
    and the store key every spelling of one workload on its canonical name:
    it is built and stored once, and every spelling gets the same cache.
    """
    key = (name, scale, n_nodes)
    cache = _COMPILED_CACHE.get(key)
    if cache is None:
        name = _canonical_name(name)
        canonical_key = (name, scale, n_nodes)
        with _build_lock(canonical_key):
            cache = _COMPILED_CACHE.get(canonical_key)
            if cache is None:
                cache = _COMPILED_CACHE[canonical_key] = _load_or_build(name, scale, n_nodes)
        _COMPILED_CACHE[key] = cache
    return cache


def _canonical_name(name: str) -> str:
    """The canonical spelling of a workload name; other names as given."""
    from repro.workloads import canonical_workload_name, is_workload_name

    return canonical_workload_name(name) if is_workload_name(name) else name


def _load_or_build(name: str, scale: float, n_nodes: Optional[int]) -> SimGraphCache:
    """The replay cache of one configuration: loaded, generated or compiled."""
    direct_spec = _direct_workload_spec(name, n_nodes)
    attrs = dict(benchmark=name, scale=scale, n_nodes=n_nodes)
    if graph_cache_enabled():
        tracer = active_tracer()
        store = CompiledGraphStore(graph_cache_root())
        with trace_span(tracer, "graph.load", **attrs) as span:
            compiled = store.load(name, scale, n_nodes)
            span.set(hit=compiled is not None)
        if compiled is None:
            if direct_spec is not None:
                from repro.workloads.direct import generate_compiled

                with trace_span(tracer, "graph.generate", **attrs):
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
                with trace_span(tracer, "graph.compile", **attrs):
                    t0 = time.perf_counter()
                    # One pause covers the build and the lowering of its graph.
                    with paused_gc():
                        compiled = compile_graph(benchmark_graph(name, scale, n_nodes))
                    store.save(
                        name, scale, compiled, n_nodes, elapsed_s=time.perf_counter() - t0
                    )
                # The compiled form now serves every later cell: drop the object
                # graph, so a worker holds one at a time, not every one it built.
                _BENCH_CACHE.pop((name, scale, n_nodes), None)
        return SimGraphCache.from_compiled(compiled)
    if direct_spec is not None:
        from repro.workloads.direct import generate_compiled

        with trace_span(active_tracer(), "graph.generate", **attrs):
            return SimGraphCache.from_compiled(generate_compiled(direct_spec, scale))
    return SimGraphCache(benchmark_graph(name, scale, n_nodes))


def _direct_workload_spec(name: str, n_nodes: Optional[int]) -> Optional[Any]:
    """The parsed spec when ``name`` should use direct generation, else None.

    Direct emission covers workload benchmarks at their registry placement
    (``n_nodes is None`` — workload tasks carry no explicit node attribute, so
    distributed re-placements still go through the object path).
    """
    if n_nodes is not None:
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
    _COMPILED_CACHE.clear()


# ---------------------------------------------------------------------------------
# cell registry and execution
# ---------------------------------------------------------------------------------

_CELL_KINDS: Dict[str, Callable[[ExperimentSpec], Any]] = {}

#: A cell kind's graph declaration: the keys a spec passes to
#: :func:`compiled_sim_cache`.
GraphsOf = Callable[[ExperimentSpec], Sequence[GraphKey]]

_CELL_GRAPHS: Dict[str, GraphsOf] = {}


def cell_kind(
    name: str, graphs: Optional[GraphsOf] = None
) -> Callable[[Callable[[ExperimentSpec], Any]], Callable]:
    """Register a cell function under ``name`` (used by the experiment drivers).

    ``graphs`` declares the ``(benchmark, scale, n_nodes)`` keys a spec's
    cell passes to :func:`compiled_sim_cache` (``None``: it reads none).  A
    parallel :meth:`ExperimentEngine.map` builds the declared keys missing
    from the compiled-graph store, each once, before it sends the cells, so
    two pool workers never build the same graph at the same time.  A
    declaration that misses a key costs only that duplicated build.
    """

    def decorate(func: Callable[[ExperimentSpec], Any]) -> Callable:
        _CELL_KINDS[name] = func
        if graphs is not None:
            _CELL_GRAPHS[name] = graphs
        return func

    return decorate


def _registered(kind: str) -> Optional[Callable[[ExperimentSpec], Any]]:
    """The cell function of ``kind``, registering the standard kinds if needed."""
    func = _CELL_KINDS.get(kind)
    if func is None:
        # A spawn-started worker has this module but not the driver module
        # whose import registers the standard cells; pull it in once.
        import repro.analysis.experiments  # noqa: F401  (registers cell kinds)

        func = _CELL_KINDS.get(kind)
    return func


def spec_graphs(spec: ExperimentSpec) -> List[GraphKey]:
    """The graph keys ``spec``'s cell declares (see :func:`cell_kind`)."""
    _registered(spec.kind)
    graphs = _CELL_GRAPHS.get(spec.kind)
    return list(graphs(spec)) if graphs is not None else []


def run_cell(spec: ExperimentSpec) -> Any:
    """Execute one cell in the current process (module-level, hence picklable)."""
    func = _registered(spec.kind)
    if func is None:
        raise KeyError(
            f"unknown experiment kind {spec.kind!r}; known: {sorted(_CELL_KINDS)}"
        )
    return func(spec)


def _build_graph(key: GraphKey) -> None:
    """Pool task: load or build one graph into the store and this worker's memo."""
    compiled_sim_cache(*key)


# ---------------------------------------------------------------------------------
# groups of cells on one graph, and the values they share
# ---------------------------------------------------------------------------------

#: The memo of the group this thread is running (``memo`` is ``None``
#: outside a group), see :func:`group_shared`.  A cell takes only its spec,
#: so the memo reaches it here; it is per thread, so a cell that another
#: thread runs (another service worker's drain) never sees a group it is
#: not in.
_GROUP = threading.local()


@contextmanager
def cell_group() -> Iterator[None]:
    """Run the block as one group of cells: they share :func:`group_shared` values.

    The memo is created when the block starts and dropped when it ends, so
    nothing a group computes outlives it.  An engine group
    (:func:`_run_group`) and a lease drain's ``map``
    (:class:`~repro.serve.workers.LeaseDrainEngine`) each run in one.
    """
    outer = getattr(_GROUP, "memo", None)
    _GROUP.memo = {}
    try:
        yield
    finally:
        _GROUP.memo = outer


def group_shared(key: Hashable, compute: Callable[[], T]) -> T:
    """``compute()``, computed once per key within the running group of cells.

    Inside a group (:func:`cell_group`) the value is memoised under ``key``
    in a dict that is created when the group starts and dropped when it
    ends; outside one (a plain :func:`run_cell`) this just calls
    ``compute()``.  Build ``key`` with :func:`spec_without`, so every param
    the value may read is in it.  Shared values are handed to every cell of
    the group, so they must be read-only: frozensets, tuples and numbers.
    """
    memo = getattr(_GROUP, "memo", None)
    if memo is None:
        return compute()
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def spec_without(spec: ExperimentSpec, *unread: str) -> ExperimentSpec:
    """``spec`` minus the params ``unread``: the key of a value that reads none of them.

    Naming what a value does *not* read means a param added later lands in
    the key by default.
    """
    return replace(spec, params=tuple(p for p in spec.params if p[0] not in unread))


#: One cell to compute: its index in the map's specs and its store key.
Todo = Tuple[int, Optional[str]]


def _cell_groups(
    specs: Sequence[ExperimentSpec], todo: List[Todo], workers: int
) -> List[List[Todo]]:
    """``todo`` cut into groups: runs of consecutive cells on one graph.

    A group is a maximal run of cells whose declared graphs
    (:func:`spec_graphs`) are equal and non-empty, cut into pieces of at
    most ``ceil(len(todo) / workers)`` cells so that no worker idles that a
    map of single cells would have used.  A cell that declares no graph is
    a group of its own.
    """
    cap = -(-len(todo) // max(1, workers))
    groups: List[List[Todo]] = []
    previous: List[GraphKey] = []
    for item in todo:
        graphs = spec_graphs(specs[item[0]])
        if graphs and graphs == previous and len(groups[-1]) < cap:
            groups[-1].append(item)
        else:
            groups.append([item])
        previous = graphs
    return groups


def _largest_first(
    specs: Sequence[ExperimentSpec], groups: List[List[Todo]]
) -> List[List[Todo]]:
    """``groups`` in the order the pool runs them: the largest first.

    A group's size is its cell count times the bytes of the stored compiled
    graphs it declares.  A worker takes the next group when it finishes one,
    so sending the large groups first leaves the small ones to fill in at
    the end of the map (longest processing time first): no large group runs
    alone there while the other workers idle, or on a worker that runs
    slower than the others.  Equal sizes keep spec order, as does every
    group without the store.
    """
    if not graph_cache_enabled():
        return groups
    store = CompiledGraphStore(graph_cache_root())

    def size(group: List[Todo]) -> int:
        paths = [store.path_for(store.key(*key)) for key in spec_graphs(specs[group[0][0]])]
        return len(group) * sum(os.path.getsize(p) for p in paths if os.path.exists(p))

    return sorted(groups, key=size, reverse=True)


def _run_group(
    cells: Sequence[Tuple[ExperimentSpec, Optional[str]]], tracer: Optional[Tracer] = None
) -> List[Tuple[Any, float]]:
    """Run one group's ``(spec, key)`` cells in order; their payloads and times.

    The pool task of a parallel map, and the serial map's loop body.  The
    cells share values through :func:`group_shared` for as long as the group
    runs, and nothing after it.
    """
    with cell_group():
        return [_run_cell_timed(spec, key, tracer) for spec, key in cells]


def _run_cell_timed(
    spec: ExperimentSpec, key: Optional[str], tracer: Optional[Tracer] = None
) -> Tuple[Any, float]:
    """Run one cell and measure its wall time in-process.

    Per-cell elapsed time is measured where the cell actually runs — in a
    pool worker the parent can't observe it (cells overlap across workers).
    The compute span is opened here for the same reason: the worker process
    owns the cell's timeline.  ``tracer`` defaults to the process's own (the
    serial map passes the engine's).  ``key`` is the cell's store key
    (``None`` when the parent is not tracing), so the span chains to the
    parent's ``cell.put`` of the same cell.
    """
    with trace_span(
        tracer if tracer is not None else active_tracer(),
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

    The engine forks its process pool at its first parallel :meth:`map` and
    reuses it for every later one, so a run's grids share workers and the
    graphs those workers hold.  :meth:`close` (or leaving a ``with engine:``
    block) shuts the pool down; an engine dropped without either shuts it
    down when it is collected, and waits for the workers to exit.

    Serial and parallel maps run the misses the same way: as groups of
    consecutive cells that read one graph, each group run by
    :func:`_run_group` in one process.  The cells of a group share the
    values they compute alike through :func:`group_shared` (a workload
    sweep's App_FIT selection and unreplicated baseline), and a shared value
    is dropped when its group ends.  A cell's ``elapsed_s`` includes the
    shared values it computed first, and none of those it was handed.
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
        #: The worker pool (see :meth:`_pool_for`), the (workers, graph-cache
        #: enabled, root) it was forked with, and the finalizer that shuts it down.
        self._pool: Optional[Any] = None
        self._pool_config: Optional[Tuple[int, bool, str]] = None
        self._shutdown: Optional[weakref.finalize] = None

    def close(self) -> None:
        """Shut the worker pool down and wait for its workers to exit.

        Idempotent; a later parallel :meth:`map` forks a new pool.
        """
        if self._shutdown is not None:
            self._shutdown()
        self._pool = self._pool_config = self._shutdown = None

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def map(self, specs: Sequence[ExperimentSpec]) -> List[Any]:
        """Run every cell and return their payloads in spec order.

        The cache misses run in groups of consecutive cells on one graph
        (see :func:`_cell_groups`): in-process and in spec order with
        ``parallelism <= 1``, otherwise one pool task per group, the
        largest groups first (see :func:`_largest_first`).  Results are
        re-assembled in submission order, so callers see the same sequence
        for any parallelism and any cache temperature; progress events
        arrive one group at a time, in the order the groups run.  A cell
        that raises fails the map, and the cells of its group that finished
        before it are not stored.
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

            # Compute the misses (serially or over the pool), one group of
            # cells on a graph at a time, and persist them.  Store keys name
            # the compute spans, so only a traced run needs them.
            traced = tracer is not None and self.store is not None
            todo = [(i, self.store.key(specs[i]) if traced else None) for i in missing]
            workers = min(self.parallelism, len(missing))
            if workers <= 1:
                for group in _cell_groups(specs, todo, workers):
                    outcomes = _run_group([(specs[i], key) for i, key in group], tracer)
                    self._record_group(specs, group, outcomes, payloads)
            else:
                self._map_pooled(specs, todo, payloads, workers)

            map_span.set(computed=len(missing), cached=total - len(missing))

        self.last_stats = (len(missing), total - len(missing))
        return payloads

    def _map_pooled(
        self,
        specs: List[ExperimentSpec],
        todo: List[Todo],
        payloads: List[Any],
        workers: int,
    ) -> None:
        """Compute the ``(index, key)`` cells of ``todo`` on the pool.

        The graphs the cells declare that the compiled-graph store lacks are
        built first, one pool task each, so no two workers build one graph.
        Then each group of cells (see :func:`_cell_groups`) is one pool task,
        sent largest first and recorded as the pool returns it.
        A pool that broke (a worker died) is replaced and the cells not yet
        recorded are resubmitted once: a cell is a pure function of its spec,
        and only the parent records results.
        """
        # Imported here, not at module top: single-worker runs (most CLI
        # invocations after the engine decides serially) never pay the
        # concurrent.futures/multiprocessing import.
        from concurrent.futures.process import BrokenProcessPool

        retried = False
        recorded: Set[int] = set()
        while True:
            pool = self._pool_for(workers)
            try:
                cells = [specs[i] for i, _ in todo]
                list(pool.map(_build_graph, self._missing_graphs(cells)))
                groups = _largest_first(specs, _cell_groups(specs, todo, workers))
                # Per-cell wall time is measured inside each worker (the
                # parent can't observe it — cells overlap across workers),
                # so records carry the true in-process compute cost.
                results = pool.map(
                    _run_group, [[(specs[i], key) for i, key in group] for group in groups]
                )
                for group, outcomes in zip(groups, results):
                    self._record_group(specs, group, outcomes, payloads)
                    recorded.update(i for i, _ in group)
                return
            except BrokenProcessPool:
                if retried:
                    raise
                retried = True
                self.close()
                todo = [item for item in todo if item[0] not in recorded]

    def _record_group(
        self,
        specs: List[ExperimentSpec],
        group: List[Todo],
        outcomes: List[Tuple[Any, float]],
        payloads: List[Any],
    ) -> None:
        """Record one computed group's cells, in spec order."""
        for (i, _), (payload, elapsed) in zip(group, outcomes):
            payloads[i] = payload
            self._record(specs[i], payload, i, len(payloads), elapsed)

    def _pool_for(self, workers: int) -> Any:
        """The engine's process pool, forked on first use and then kept.

        A pool forked under another compiled-graph cache configuration, or
        with fewer workers than this map can use, is replaced; workers map
        the store the parent names when they start.
        """
        enabled, root = graph_cache_enabled(), graph_cache_root()
        config = self._pool_config
        if config is not None and (config[1:] != (enabled, root) or config[0] < workers):
            self.close()
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_pool_worker_init,
                initargs=(enabled, root),
            )
            self._pool, self._pool_config = pool, (workers, enabled, root)
            # An engine dropped without close() still reaps its workers:
            # RUSAGE_CHILDREN, for one, counts only reaped children.
            self._shutdown = weakref.finalize(self, pool.shutdown)
        return self._pool

    def _missing_graphs(self, specs: Sequence[ExperimentSpec]) -> List[GraphKey]:
        """The declared graphs of ``specs`` that the compiled-graph store lacks.

        Without the store (the library default) one worker's build cannot
        serve another, so nothing is built ahead.
        """
        if not graph_cache_enabled():
            return []
        store = CompiledGraphStore(graph_cache_root())
        wanted = dict.fromkeys(key for spec in specs for key in spec_graphs(spec))
        return [key for key in wanted if not store.contains(*key)]

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
