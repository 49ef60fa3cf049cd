"""The unified ``repro`` command-line interface.

One entry point replaces the per-example argparse copies::

    repro run fig3 fig5            # compute (cache-aware) + write artifacts
    repro run all --scale 0.1      # every figure/table at a reduced scale
    repro sweep --benchmarks cholesky fft --policies app_fit top_fit
    repro sweep --workload layered:depth=12,width=8,seed=7 --scale 0.2
    repro workloads ls|describe|gen  # synthetic DAG families + trace export
    repro report fig3              # re-render artifacts from stored records
    repro cache ls|stats|gc|clear  # maintain the results + compiled-graph stores
    repro targets                  # list runnable targets
    repro serve --workers 2        # the sweep service (HTTP + local workers)
    repro serve --worker           # a pure worker draining the shared cache root
    repro submit --target fig5 --wait --out results   # submit to the service
    repro status [JOB_ID]          # poll the service's job queue

Installed as a ``repro`` console script by ``setup.py`` and also runnable as
``python -m repro``.  Every run/sweep/report invocation shares the same knobs:
``--scale``, ``--seed``, ``--parallelism`` (or ``REPRO_PARALLELISM``),
``--reference`` (scalar reference path, serial; or ``REPRO_REFERENCE=1``),
``--out`` (artifact directory), ``--cache-dir`` (or ``REPRO_CACHE_DIR``),
``--force`` (recompute cached cells), ``--no-cache``, and
``--no-graph-cache`` (rebuild task graphs in-process instead of sharing
compiled graphs through the on-disk store; see
:mod:`repro.runtime.compiled`).

Artifacts: each target writes ``<artifact>.txt`` (byte-identical to the
benchmark harness's ``benchmarks/results/*.txt`` files), ``<artifact>.json``
(structured rows plus provenance) and ``<artifact>.csv`` (flat rows).
Computation is cell-cached through :mod:`repro.analysis.store`, so a second
``repro run fig5`` with a warm cache does zero cell computations and an
interrupted sweep resumes where it stopped.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from repro import settings
from repro.analysis.runner import CellProgress, ExperimentEngine, configure_graph_cache
from repro.analysis.store import ResultStore, code_version
from repro.analysis.targets import (
    TARGETS,
    TargetOutput,
    render_artifact_texts,
    resolve_targets,
)
from repro.obs.maintenance import obs_clear, obs_gc, obs_stats
from repro.obs.trace import configure_trace_root
from repro.runtime.compiled import DEFAULT_WORKLOAD_MAX_AGE_S, CompiledGraphStore
from repro.serve.jobs import JobValidationError, check_n_seeds, check_scale
from repro.util.units import format_bytes

#: Default artifact directory.  Deliberately NOT ``benchmarks/results`` — the
#: committed goldens live there, and a casual `repro run fig3` (default scale
#: 1.0) must not overwrite them; regenerating the goldens is an explicit
#: ``repro run all --scale 0.2 --out benchmarks/results``.
DEFAULT_OUT_DIR = "results"


class MissingRecordError(RuntimeError):
    """Raised by ``repro report --strict`` when a cell is not in the cache."""


class _StrictStore(ResultStore):
    """A store view that refuses to compute: every miss is an error."""

    def __init__(self, inner: ResultStore) -> None:
        super().__init__(inner.root)

    def get(self, spec):
        """Like :meth:`ResultStore.get`, but a miss raises instead of returning None."""
        record = super().get(spec)
        if record is None:
            raise MissingRecordError(
                f"cell not in cache: kind={spec.kind} benchmark={spec.benchmark} "
                f"scale={spec.scale} seed={spec.seed} fast={spec.fast} "
                f"(run `repro run` first, or drop --strict)"
            )
        return record


# ---------------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------------


def _flag_type(check):
    """An argparse ``type`` from a request-field check: a bad value is a usage error."""

    def parse(text: str):
        try:
            return check(text)
        except JobValidationError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    """The run/sweep/report knobs shared by every computing subcommand."""
    parser.add_argument(
        "--scale",
        type=_flag_type(check_scale),
        default=1.0,
        help="problem scale (1.0 = the paper's Table I sizes; default 1.0)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed (default 0)")
    parser.add_argument(
        "--n-seeds",
        type=_flag_type(check_n_seeds),
        default=1,
        help="fault seeds averaged per simulated cell (default 1; extra seeds "
        "are derived from --seed and batched on the fast path)",
    )
    parser.add_argument(
        "--parallelism",
        type=int,
        default=None,
        help="worker processes (default: one per CPU, or REPRO_PARALLELISM)",
    )
    parser.add_argument(
        "--reference",
        action="store_true",
        help="run the scalar reference path serially instead of the vectorized "
        "fast path (equivalent to REPRO_REFERENCE=1 REPRO_PARALLELISM=1)",
    )
    parser.add_argument(
        "--out",
        default=DEFAULT_OUT_DIR,
        metavar="DIR",
        help=f"artifact output directory (default: {DEFAULT_OUT_DIR})",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="results-store root (default: REPRO_CACHE_DIR or .repro_cache)",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="recompute every cell even when a cached record exists",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the results store entirely (no reads, no writes)",
    )
    parser.add_argument(
        "--no-graph-cache",
        action="store_true",
        help="rebuild task graphs in-process instead of sharing compiled "
        "graphs through the on-disk cache (or set REPRO_GRAPH_CACHE=0)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="suppress progress/summary output"
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="print one line per finished cell"
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for the docs smoke test)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the figures and tables of Subasi et al., "
        "'A Runtime Heuristic to Selectively Replicate Tasks for "
        "Application-Specific Reliability Targets' (IEEE CLUSTER 2016), "
        "with cell-level caching and resume.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    run = sub.add_parser(
        "run",
        help="compute figure/table targets (cache-aware) and write artifacts",
        description="Compute one or more targets and write .txt/.json/.csv "
        "artifacts. Cells already in the results store are not recomputed.",
    )
    run.add_argument(
        "targets",
        nargs="*",
        default=["all"],
        metavar="TARGET",
        help=f"targets to run: {', '.join(TARGETS)}, or 'all' (default)",
    )
    _add_engine_options(run)

    report = sub.add_parser(
        "report",
        help="re-render artifacts from stored records (no recomputation needed)",
        description="Render targets back into the benchmarks/results/*.txt "
        "formats (plus .json/.csv) from the results store. Missing cells are "
        "computed unless --strict is given.",
    )
    report.add_argument(
        "targets",
        nargs="*",
        default=["all"],
        metavar="TARGET",
        help=f"targets to render: {', '.join(TARGETS)}, or 'all' (default)",
    )
    _add_engine_options(report)
    report.add_argument(
        "--strict",
        action="store_true",
        help="fail instead of computing when a cell is missing from the cache",
    )

    sweep = sub.add_parser(
        "sweep",
        help="run an arbitrary benchmark x policy x rate grid",
        description="Grid arbitrary benchmarks, replication policies and "
        "error-rate multipliers; each combination is one cached cell.",
    )
    sweep.add_argument(
        "--benchmarks",
        nargs="+",
        default=None,
        metavar="NAME",
        help="benchmarks to sweep (default: all nine Table I benchmarks)",
    )
    sweep.add_argument(
        "--workload",
        nargs="+",
        default=None,
        metavar="SPEC",
        help="sweep synthetic workloads instead of Table I benchmarks "
        "(spec strings such as layered:depth=12,width=8,seed=7; "
        "see `repro workloads ls`)",
    )
    sweep.add_argument(
        "--fault-rates",
        nargs="+",
        type=float,
        default=[0.0, 0.01],
        metavar="P",
        help="per-task crash probabilities simulated in workload sweeps "
        "(default: 0 0.01; ignored without --workload)",
    )
    sweep.add_argument(
        "--policies",
        nargs="+",
        default=["app_fit"],
        metavar="POLICY",
        help="replication policies (app_fit, knapsack_oracle, top_fit, random, "
        "complete; default: app_fit)",
    )
    sweep.add_argument(
        "--multipliers",
        nargs="+",
        type=float,
        default=[10.0, 5.0],
        metavar="X",
        help="error-rate multipliers (default: 10 5)",
    )
    sweep.add_argument(
        "--residual-fit-factor",
        type=float,
        default=0.0,
        help="residual FIT factor charged to replicated tasks (default 0)",
    )
    sweep.add_argument(
        "--name",
        default="sweep",
        help="artifact stem for the sweep output files (default: sweep)",
    )
    _add_engine_options(sweep)

    cache = sub.add_parser(
        "cache",
        help="inspect and maintain the content-addressed results store",
        description="Cache maintenance. The store root is --cache-dir, "
        "REPRO_CACHE_DIR, or .repro_cache.",
    )
    cache.add_argument(
        "action",
        choices=("ls", "stats", "gc", "clear"),
        help="ls: list records; stats: totals; gc: drop stale/corrupt records "
        "and age out old compiled workload graphs; clear: drop everything",
    )
    cache.add_argument("--cache-dir", default=None, metavar="DIR")
    cache.add_argument(
        "--workload-max-age",
        type=float,
        default=None,
        metavar="SECONDS",
        help="gc only: age limit for compiled workload graphs (default: one "
        "week; <= 0 keeps them all)",
    )

    workloads = sub.add_parser(
        "workloads",
        help="list, inspect and generate synthetic workloads / traces",
        description="The workload subsystem: parametric DAG generator "
        "families plus a JSON trace importer. Specs are "
        "family:key=value,... strings; every parameter (including the seed) "
        "is part of the cache identity.",
    )
    workloads.add_argument(
        "action",
        choices=("ls", "describe", "gen"),
        help="ls: list families and parameters; describe: resolve one spec "
        "and show its graph statistics; gen: generate an instance (optionally "
        "exporting it as a JSON trace)",
    )
    workloads.add_argument(
        "spec",
        nargs="?",
        default=None,
        metavar="SPEC",
        help="workload spec for describe/gen (e.g. layered:depth=12,width=8)",
    )
    workloads.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="problem scale applied to the scaled parameters (default 1.0)",
    )
    workloads.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="gen only: write the generated graph as a trace JSON file "
        "(re-importable via trace:file=FILE)",
    )
    workloads.add_argument(
        "--store",
        action="store_true",
        help="gen only: emit the graph directly into the compiled-graph "
        "store as flat arrays (no per-task Python objects — the only "
        "practical path beyond ~10^6 tasks)",
    )
    workloads.add_argument("--cache-dir", default=None, metavar="DIR")

    serve = sub.add_parser(
        "serve",
        help="run the sweep service (HTTP frontend and/or a sweep worker)",
        description="Sweep-as-a-service. Default mode serves the HTTP API "
        "(submit/status/events/artifacts/health/stats) with --workers local "
        "drain threads; --worker mode runs a pure worker process that drains "
        "the shared cache root's job queue — start any number on any machines "
        "sharing that root, and cell leases shard the grids exactly once.",
    )
    serve.add_argument(
        "--host", default=None, help="bind host (default: REPRO_SERVE_BIND or 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="bind port (default: REPRO_SERVE_BIND or 8765; 0 picks a free port)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="embedded worker threads (default 1; 0 = frontend only)",
    )
    serve.add_argument(
        "--worker",
        action="store_true",
        help="run one worker process instead of the HTTP server",
    )
    serve.add_argument(
        "--idle-exit",
        action="store_true",
        help="worker mode: exit once the job queue is drained (for CI/scripts)",
    )
    serve.add_argument(
        "--poll-interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="worker mode: queue poll interval while idle (default 0.5)",
    )
    serve.add_argument(
        "--ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="cell lease TTL (default: REPRO_LEASE_TTL_S or 30)",
    )
    serve.add_argument(
        "--max-restarts",
        type=int,
        default=None,
        metavar="N",
        help="crash-loop cap per embedded worker slot (default: 5)",
    )
    serve.add_argument("--cache-dir", default=None, metavar="DIR")
    serve.add_argument(
        "--no-graph-cache",
        action="store_true",
        help="rebuild task graphs in-process instead of sharing compiled graphs",
    )

    submit = sub.add_parser(
        "submit",
        help="submit a sweep to a running service and optionally wait for it",
        description="POST one job to `repro serve`: a named target, a workload "
        "sweep, or a benchmark sweep. With --wait, polls until the job "
        "finishes; with --out, downloads the .txt/.json/.csv artifacts.",
    )
    submit.add_argument(
        "--url",
        default=None,
        help="service base URL (default: REPRO_SERVE_URL or the default bind)",
    )
    submit.add_argument("--target", default=None, help=f"registry target: {', '.join(TARGETS)}")
    submit.add_argument(
        "--workload", nargs="+", default=None, metavar="SPEC", help="workload sweep specs"
    )
    submit.add_argument(
        "--benchmarks", nargs="+", default=None, metavar="NAME", help="benchmark sweep names"
    )
    submit.add_argument("--scale", type=float, default=1.0)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--n-seeds", type=int, default=1)
    submit.add_argument("--policies", nargs="+", default=["app_fit"], metavar="POLICY")
    submit.add_argument("--multipliers", nargs="+", type=float, default=[10.0, 5.0], metavar="X")
    submit.add_argument(
        "--fault-rates", nargs="+", type=float, default=[0.0, 0.01], metavar="P"
    )
    submit.add_argument("--residual-fit-factor", type=float, default=0.0)
    submit.add_argument(
        "--reference",
        action="store_true",
        help="request the scalar reference path (fast=false cells)",
    )
    submit.add_argument(
        "--wait", action="store_true", help="poll until the job is done or failed"
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="--wait limit (default 600)",
    )
    submit.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="with --wait: download the artifacts into DIR",
    )
    submit.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="HTTP attempts per request, with jittered backoff (default 5)",
    )
    submit.add_argument(
        "--retry-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock bound on each request's retry loop (default: none)",
    )
    submit.add_argument("-q", "--quiet", action="store_true")

    status_cmd = sub.add_parser(
        "status",
        help="show the service's job queue (or one job)",
        description="Query a running `repro serve` for job states and cell "
        "progress; with a JOB_ID, show that job's derived status document.",
    )
    status_cmd.add_argument("job", nargs="?", default=None, metavar="JOB_ID")
    status_cmd.add_argument(
        "--url",
        default=None,
        help="service base URL (default: REPRO_SERVE_URL or the default bind)",
    )
    status_cmd.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="HTTP attempts per request, with jittered backoff (default 5)",
    )
    status_cmd.add_argument(
        "--retry-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock bound on each request's retry loop (default: none)",
    )

    trace_cmd = sub.add_parser(
        "trace",
        help="summarize or export the structured trace of a cache root",
        description="Analyse <cache>/obs/trace.jsonl (recorded when runs "
        "execute under REPRO_TRACE=light|full): summarize prints per-site "
        "latency percentiles and the slowest cells; export writes a Chrome "
        "trace-event JSON file loadable in Perfetto or chrome://tracing, "
        "with one row per worker and retry/chaos markers.",
    )
    trace_cmd.add_argument(
        "action",
        choices=("summarize", "export"),
        help="summarize: per-site percentiles + slowest cells; "
        "export: write a Chrome trace-event file (see --out)",
    )
    trace_cmd.add_argument("--cache-dir", default=None, metavar="DIR")
    trace_cmd.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="export only: output path (default: <cache>/obs/trace_chrome.json)",
    )
    trace_cmd.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="summarize only: how many slowest cells to list (default 10)",
    )

    targets_cmd = sub.add_parser("targets", help="list the runnable figure/table targets")
    targets_cmd.set_defaults(command="targets")

    parser.add_argument(
        "--version", action="store_true", help="print the package version and exit"
    )
    return parser


# ---------------------------------------------------------------------------------
# artifact output
# ---------------------------------------------------------------------------------


def _write_artifacts(
    out_dir: str,
    artifact: str,
    output: TargetOutput,
    meta: Dict[str, Any],
) -> List[str]:
    """Write the .txt/.json/.csv artifacts of one target; return their paths.

    Contents come from :func:`~repro.analysis.targets.render_artifact_texts`,
    the same composer the sweep service serves over HTTP, so local runs and
    served jobs emit byte-identical artifacts.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for fmt, content in render_artifact_texts(output, meta).items():
        path = os.path.join(out_dir, f"{artifact}.{fmt}")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------------


def _configure_caches(args: argparse.Namespace) -> None:
    """Pin the compiled-graph store and the trace root to ``--cache-dir``.

    The CLI shares compiled graphs through the on-disk store unless
    ``--no-graph-cache`` or a false ``REPRO_GRAPH_CACHE`` opts out; plain
    library calls stay in-memory unless configured otherwise.  Span sites
    without a store in hand (graph loads, simulator dispatch) resolve their
    tracer against the same root the engine caches under.
    """
    enabled = not getattr(args, "no_graph_cache", False)
    configure_graph_cache(
        enabled=enabled and settings.get("REPRO_GRAPH_CACHE") is not False,
        root=args.cache_dir,
    )
    configure_trace_root(args.cache_dir)


def _make_engine(args: argparse.Namespace, strict: bool = False) -> ExperimentEngine:
    """Build the (cache-aware) engine an invocation runs on."""
    store: Optional[ResultStore]
    if args.no_cache:
        store = None
    else:
        store = ResultStore(args.cache_dir)
        if strict:
            store = _StrictStore(store)
    _configure_caches(args)

    progress = None
    if args.verbose and not args.quiet:

        def progress(event: CellProgress) -> None:
            state = "cached  " if event.cached else "computed"
            timing = f" ({event.elapsed_s:.2f} s)" if event.elapsed_s else ""
            print(
                f"  [{event.index + 1}/{event.total}] {state} "
                f"{event.spec.kind} {event.spec.benchmark}{timing}"
            )

    if args.reference:
        return ExperimentEngine(
            parallelism=1, fast=False, store=store, force=args.force, progress=progress
        )
    return ExperimentEngine(
        parallelism=args.parallelism, store=store, force=args.force, progress=progress
    )


def _run_targets(args: argparse.Namespace, strict: bool = False) -> int:
    """`repro run` / `repro report`: build targets, write artifacts."""
    if strict and (args.no_cache or args.force):
        # Either flag would bypass the strict store's get(), silently turning
        # "fail instead of computing" into a full recomputation.
        print("repro: --strict cannot be combined with --no-cache or --force", file=sys.stderr)
        return 2
    try:
        targets = resolve_targets(args.targets)
    except KeyError as exc:
        print(f"repro: {exc.args[0]}", file=sys.stderr)
        return 2
    engine = _make_engine(args, strict=strict)
    meta_base = {
        "scale": args.scale,
        "seed": args.seed,
        "n_seeds": args.n_seeds,
        "fast": engine.fast,
        "code_version": code_version(),
    }
    for target in targets:
        t0 = time.perf_counter()
        # Deltas of the cumulative counters: a target may issue several
        # engine.map calls (e.g. ablation-rates runs one grid per benchmark),
        # and last_stats would only reflect the final one.
        computed0, cached0 = engine.cells_computed, engine.cells_cached
        try:
            output = target.build(args.scale, args.seed, engine, n_seeds=args.n_seeds)
        except MissingRecordError as exc:
            print(f"repro: {target.name}: {exc}", file=sys.stderr)
            return 1
        computed = engine.cells_computed - computed0
        cached = engine.cells_cached - cached0
        paths = _write_artifacts(
            args.out,
            target.artifact,
            output,
            {**meta_base, "target": target.name, **output.meta},
        )
        if not args.quiet:
            print(
                f"{target.name}: {computed + cached} cells "
                f"({computed} computed, {cached} cached) "
                f"in {time.perf_counter() - t0:.2f} s -> {paths[0]}"
            )
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    """`repro sweep`: a benchmark or workload x policy x multiplier grid.

    The grid is the request the service would take for it, run through
    :func:`~repro.serve.jobs.execute_request`, so the artifacts are the
    bytes the service composes for that request.
    """
    from repro.apps.registry import all_benchmark_names
    from repro.serve.jobs import execute_request

    if args.workload and args.benchmarks:
        print("repro: --workload and --benchmarks are mutually exclusive", file=sys.stderr)
        return 2
    engine = _make_engine(args)
    request: Dict[str, Any] = {
        "scale": args.scale,
        "seed": args.seed,
        "n_seeds": args.n_seeds,
        "fast": engine.fast,
        "policies": list(args.policies),
        "multipliers": list(args.multipliers),
        "residual_fit_factor": args.residual_fit_factor,
    }
    if args.workload:
        request.update(
            type="workload_sweep",
            workloads=list(args.workload),
            fault_rates=list(args.fault_rates),
        )
        label, name = "workload sweep", "workload_sweep" if args.name == "sweep" else args.name
    else:
        request.update(type="sweep", benchmarks=list(args.benchmarks or all_benchmark_names()))
        label, name = "sweep", args.name
    t0 = time.perf_counter()
    computed0, cached0 = engine.cells_computed, engine.cells_cached
    try:
        output, meta = execute_request(request, engine)
    except (KeyError, ValueError) as exc:
        print(f"repro: {exc.args[0]}", file=sys.stderr)
        return 2
    computed = engine.cells_computed - computed0
    cached = engine.cells_cached - cached0
    paths = _write_artifacts(args.out, name, output, meta)
    if not args.quiet:
        print(output.text)
        print(
            f"\n{label}: {computed + cached} cells ({computed} computed, "
            f"{cached} cached) in {time.perf_counter() - t0:.2f} s -> {paths[0]}"
        )
    return 0


def _run_workloads(args: argparse.Namespace) -> int:
    """`repro workloads ls|describe|gen`: the synthetic-workload front end."""
    from repro.workloads import FAMILIES, WorkloadBenchmark, export_trace, parse_workload

    if args.action == "ls":
        for family in FAMILIES.values():
            print(f"{family.name}")
            print(f"  {family.description}")
            if family.promises:
                print(f"  guarantees: {', '.join(family.promises)}")
            for param in family.params:
                default = "(required)" if param.default is None else f"= {param.default}"
                scaled = ", scaled" if param.scaled else ""
                print(f"    {param.name:<10} {default:<10} {param.doc}{scaled}")
        return 0

    if args.spec is None:
        print(f"repro: workloads {args.action} needs a SPEC argument", file=sys.stderr)
        return 2
    try:
        spec = parse_workload(args.spec)
    except (KeyError, ValueError) as exc:
        print(f"repro: {exc.args[0]}", file=sys.stderr)
        return 2

    if args.store and args.action == "gen":
        if args.out:
            print(
                "repro: workloads gen --store and --out are mutually exclusive "
                "(trace export walks the object graph the direct path avoids)",
                file=sys.stderr,
            )
            return 2
        from repro.workloads import generate_compiled

        store = CompiledGraphStore(args.cache_dir)
        t0 = time.perf_counter()
        compiled = generate_compiled(spec, args.scale)
        elapsed = time.perf_counter() - t0
        key = store.save(
            spec.canonical, args.scale, compiled, None, elapsed_s=elapsed
        )
        print(f"canonical : {spec.canonical}")
        print(f"scale     : {args.scale:g}")
        print(f"tasks     : {compiled.n}")
        print(f"edges     : {len(compiled.succ_indices)}")
        print(f"generated : {elapsed:.3f} s (direct — no object graph)")
        print(f"store key : {key}")
        print(f"store file: {store.path_for(key)}")
        return 0

    bench = WorkloadBenchmark(spec, scale=args.scale)
    graph = bench.build_graph()
    stats = graph.stats()
    effective = spec.effective_params(args.scale)
    print(f"canonical : {spec.canonical}")
    print(f"family    : {spec.family} — {bench.description}")
    print(f"scale     : {args.scale:g}")
    changed = [
        f"{k}={effective[k]}" for k, v in spec.params if effective[k] != v
    ]
    if changed:
        print(f"effective : {', '.join(changed)}")
    print(f"tasks     : {stats.n_tasks}")
    print(f"edges     : {stats.n_edges}")
    print(f"total work: {stats.total_work_s:.6f} s")
    print(f"critical  : {stats.critical_path_s:.6f} s "
          f"(average parallelism {stats.average_parallelism:.2f})")
    print(f"max width : {stats.max_width}")
    print(f"arg bytes : {format_bytes(stats.total_argument_bytes)}")

    if args.action == "gen" and args.out:
        export_trace(graph, args.out)
        print(f"trace     : {args.out} (re-import with trace:file={args.out})")
    return 0


def _run_cache(args: argparse.Namespace) -> int:
    """`repro cache ls|stats|gc|clear` over both stores (results + graphs)."""
    store = ResultStore(args.cache_dir)
    graphs = CompiledGraphStore(args.cache_dir)
    if args.action == "ls":
        rows = store.ls()
        if not rows:
            print(f"cache at {store.root}: empty")
        else:
            header = (
                f"{'key':<14} {'kind':<24} {'benchmark':<10} {'scale':>6} "
                f"{'seed':>6} {'fast':>5} {'elapsed':>9}  version"
            )
            print(header)
            print("-" * len(header))
            for row in rows:
                elapsed = (
                    f"{row['elapsed_s']:.3f}s" if row.get("elapsed_s") is not None else "-"
                )
                print(
                    f"{row['key']:<14} {row['kind']:<24} {row['benchmark']:<10} "
                    f"{row['scale']:>6} {row['seed']:>6} {str(row['fast']):>5} "
                    f"{elapsed:>9}  {row['code_version']}"
                )
            print(f"\n{len(rows)} record(s) in {store.root}")
        graph_rows = graphs.ls()
        if not graph_rows:
            print(f"compiled graphs at {graphs.root}: empty")
        else:
            print()
            # Workload spec strings can be long, so the benchmark column is
            # sized to its contents instead of a fixed width.
            bench_w = max(9, *(len(str(r["benchmark"])) for r in graph_rows))
            header = (
                f"{'key':<14} {'benchmark':<{bench_w}} {'scale':>6} {'nodes':>6} "
                f"{'tasks':>8} {'edges':>9} {'size':>10} {'kind':<8}  version"
            )
            print(header)
            print("-" * len(header))
            for row in graph_rows:
                nodes = "-" if row["n_nodes"] is None else str(row["n_nodes"])
                kind = "workload" if row.get("workload") else "table1"
                print(
                    f"{row['key']:<14} {row['benchmark']:<{bench_w}} {row['scale']:>6} "
                    f"{nodes:>6} {row['n_tasks']:>8} {row['n_edges']:>9} "
                    f"{format_bytes(row['nbytes']):>10} {kind:<8}  {row['code_version']}"
                )
            print(f"\n{len(graph_rows)} compiled graph(s) in {graphs.root}")
        return 0
    if args.action == "stats":
        stats = store.stats()
        gstats = graphs.stats()
        print(f"root           : {stats['root']}")
        print(f"records        : {stats['records']}")
        print(f"record bytes   : {stats['bytes']} ({format_bytes(stats['bytes'])})")
        versions = ", ".join(f"{v} x{n}" for v, n in sorted(stats["code_versions"].items()))
        print(f"code versions  : {versions or '(none)'}")
        if stats.get("attempts") or stats.get("poisoned"):
            print(
                f"retry ledger   : {stats['attempts']} attempt marker(s), "
                f"{stats['poisoned']} poisoned cell(s)"
            )
        print(f"compiled graphs: {gstats['entries']}")
        print(f"workload graphs: {gstats['workloads']}")
        print(f"graph bytes    : {gstats['bytes']} ({format_bytes(gstats['bytes'])})")
        if gstats["unreadable"] or gstats["missing_arrays"]:
            print(
                f"graph damage   : {gstats['unreadable']} unreadable sidecar(s), "
                f"{gstats['missing_arrays']} missing array file(s)"
            )
        gversions = ", ".join(
            f"{v} x{n}" for v, n in sorted(gstats["code_versions"].items())
        )
        print(f"graph versions : {gversions or '(none)'}")
        ostats = obs_stats(store.root)
        print(
            f"obs trace      : {format_bytes(ostats['trace_bytes'])} live, "
            f"{ostats['rotated_segments']} rotated segment(s) "
            f"({format_bytes(ostats['rotated_bytes'])})"
        )
        print(
            f"obs metrics    : {ostats['metrics_snapshots']} snapshot(s) "
            f"({format_bytes(ostats['metrics_bytes'])})"
        )
        return 0
    if args.action == "gc":
        max_age = args.workload_max_age
        if max_age is None:
            max_age = DEFAULT_WORKLOAD_MAX_AGE_S
        removed = store.gc()
        gremoved = graphs.gc(workload_max_age_s=max_age if max_age > 0 else None)
        print(
            f"gc: removed {removed['stale']} stale, {removed['corrupt']} corrupt, "
            f"{removed['tmp']} temp record(s) from {store.root}"
        )
        if removed["attempts"] or removed["poison_stale"] or removed["workers_stale"]:
            print(
                f"gc: removed {removed['attempts']} spent attempt marker(s), "
                f"{removed['poison_stale']} stale poison tombstone(s), "
                f"{removed['workers_stale']} stale worker liveness file(s)"
            )
        print(
            f"gc: removed {gremoved['stale']} stale, {gremoved['orphan']} orphan, "
            f"{gremoved['tmp']} temp, {gremoved['aged']} aged-workload compiled "
            f"graph(s) from {graphs.root}"
        )
        if gremoved["skipped"]:
            print(
                f"gc: WARNING: {gremoved['skipped']} unremovable path(s) skipped "
                f"in {graphs.root}"
            )
        oremoved = obs_gc(store.root, max_age_s=max_age if max_age > 0 else None)
        print(
            f"gc: removed {oremoved['rotated_segments']} rotated trace segment(s), "
            f"{oremoved['metrics_snapshots']} stale metrics snapshot(s) from obs/"
        )
        if oremoved["skipped"]:
            print(
                f"gc: WARNING: {oremoved['skipped']} unremovable obs path(s) skipped"
            )
        return 0
    removed = store.clear()
    gremoved = graphs.clear()
    oremoved = obs_clear(store.root)
    print(f"clear: removed {removed} record(s) from {store.root}")
    print(f"clear: removed {gremoved} compiled graph(s) from {graphs.root}")
    print(
        f"clear: removed {oremoved['trace'] + oremoved['rotated_segments']} trace "
        f"file(s), {oremoved['metrics_snapshots']} metrics snapshot(s) from obs/"
    )
    return 0


def _service_url(url: Optional[str]) -> str:
    """Resolve the service base URL: flag > ``REPRO_SERVE_URL`` > default bind."""
    if url:
        return url.rstrip("/")
    env = settings.get("REPRO_SERVE_URL")
    if env is not None:
        return env.rstrip("/")
    from repro.serve.app import default_bind

    host, port = default_bind()
    return f"http://{host}:{port}"


class _TransientHTTPError(OSError):
    """A retryable client failure wrapping the original exception.

    The client collapses every transient shape — connection refused while the
    server is still binding, a chaos-injected connection reset, a 5xx — into
    this one type so the retry loop matches exactly these and nothing else
    (a 400 is an answer, not weather).  After the budget is spent the
    *original* exception is re-raised, so callers' ``except`` clauses never
    learn the retry layer exists.
    """

    def __init__(self, inner: BaseException) -> None:
        super().__init__(str(inner))
        self.inner = inner


def _http_call(fetch, url: str, retries: Optional[int], deadline: Optional[float]):
    """Run one HTTP fetch through the shared retry discipline."""
    import urllib.error
    from http.client import HTTPException

    from repro.util.retry import RetryPolicy, retry_call

    def _once():
        try:
            return fetch()
        except urllib.error.HTTPError as exc:
            if exc.code >= 500:
                raise _TransientHTTPError(exc)
            raise
        except (urllib.error.URLError, HTTPException, ConnectionError, TimeoutError) as exc:
            raise _TransientHTTPError(exc)

    policy = RetryPolicy(
        max_attempts=retries if retries is not None else 5,
        base_delay_s=0.1,
        max_delay_s=2.0,
        deadline_s=deadline,
    )
    try:
        return retry_call(
            _once,
            policy=policy,
            retryable=(_TransientHTTPError,),
            describe=f"request {url}",
        )
    except _TransientHTTPError as exc:
        raise exc.inner from exc


def _http_json(
    url: str,
    body: Optional[Dict[str, Any]] = None,
    retries: Optional[int] = None,
    retry_deadline: Optional[float] = None,
) -> Dict[str, Any]:
    """One GET (or POST, when a body is given) returning the parsed JSON."""
    import urllib.request

    def _fetch() -> Dict[str, Any]:
        data = None if body is None else json.dumps(body).encode("utf-8")
        request = urllib.request.Request(
            url, data=data, headers={"Content-Type": "application/json"} if data else {}
        )
        with urllib.request.urlopen(request) as resp:
            return json.load(resp)

    return _http_call(_fetch, url, retries, retry_deadline)


def _http_bytes(
    url: str,
    retries: Optional[int] = None,
    retry_deadline: Optional[float] = None,
) -> bytes:
    """One GET returning the raw body (artifact downloads)."""
    import urllib.request

    def _fetch() -> bytes:
        with urllib.request.urlopen(url) as resp:
            return resp.read()

    return _http_call(_fetch, url, retries, retry_deadline)


def _run_serve(args: argparse.Namespace) -> int:
    """`repro serve`: the HTTP service, or (with --worker) one drain process.

    Every knob is read first (:func:`repro.settings.check`): a bad value is
    a usage error, reported before any socket is bound or line printed.
    """
    from repro.serve.app import ReproServer
    from repro.serve.workers import SweepWorker

    try:
        settings.check()
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    _configure_caches(args)
    if args.worker:
        # A worker *process* takes chaos kills as a genuine SIGKILL —
        # supervision (and the resulting lease expiry) is exercised for real.
        worker = SweepWorker(
            args.cache_dir, ttl_s=args.ttl, poll_interval_s=None, hard_kill=True
        )
        print(f"worker {worker.owner} draining {worker.store.root}", flush=True)
        try:
            worker.run_forever(poll_s=args.poll_interval, idle_exit=args.idle_exit)
        except KeyboardInterrupt:
            pass
        print(
            f"worker {worker.owner}: {worker.jobs_drained} job(s) drained, "
            f"{worker.cells_computed} cell(s) computed, "
            f"{worker.cells_cached} cached",
            flush=True,
        )
        return 0
    server = ReproServer(
        root=args.cache_dir,
        host=args.host,
        port=args.port,
        workers=max(0, args.workers),
        ttl_s=args.ttl,
        max_restarts=args.max_restarts,
    )
    print(
        f"serving {server.store.root} at {server.url} "
        f"({max(0, args.workers)} supervised local worker(s))",
        flush=True,
    )
    server.serve_forever()
    return 0


def _run_submit(args: argparse.Namespace) -> int:
    """`repro submit`: POST one job; optionally wait and fetch artifacts."""
    import urllib.error

    modes = [m for m in (args.target, args.workload, args.benchmarks) if m]
    if len(modes) != 1:
        print(
            "repro: submit needs exactly one of --target, --workload, --benchmarks",
            file=sys.stderr,
        )
        return 2
    request: Dict[str, Any] = {
        "scale": args.scale,
        "seed": args.seed,
        "n_seeds": args.n_seeds,
        "fast": not args.reference,
    }
    if args.target:
        request["target"] = args.target
    else:
        request["policies"] = list(args.policies)
        request["multipliers"] = list(args.multipliers)
        request["residual_fit_factor"] = args.residual_fit_factor
        if args.workload:
            request["workloads"] = list(args.workload)
            request["fault_rates"] = list(args.fault_rates)
        else:
            request["benchmarks"] = list(args.benchmarks)
    base = _service_url(args.url)
    try:
        submitted = _http_json(
            f"{base}/api/v1/jobs",
            body=request,
            retries=args.retries,
            retry_deadline=args.retry_deadline,
        )
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode("utf-8", "replace").strip()
        print(f"repro: submit rejected ({exc.code}): {detail}", file=sys.stderr)
        return 1
    except (urllib.error.URLError, OSError) as exc:
        print(f"repro: cannot reach {base}: {exc}", file=sys.stderr)
        return 1
    job = submitted["job"]
    if not args.quiet:
        print(f"submitted {job['id']} ({job['artifact']}) to {base}")
    if not args.wait:
        return 0
    from repro.util.retry import poll_delays

    deadline = time.monotonic() + args.timeout
    delays = poll_delays(base_delay_s=0.2, max_delay_s=2.0)
    status: Dict[str, Any] = {}
    while time.monotonic() < deadline:
        status = _http_json(
            f"{base}/api/v1/jobs/{job['id']}",
            retries=args.retries,
            retry_deadline=args.retry_deadline,
        )
        if status["state"] in ("done", "failed"):
            break
        # Jittered exponential backoff, not a fixed interval: many waiting
        # submitters must not poll the frontend in lockstep.
        time.sleep(min(next(delays), max(0.0, deadline - time.monotonic())))
    cells = status.get("cells", {})
    if not args.quiet:
        print(
            f"{job['id']}: {status.get('state', 'unknown')} "
            f"({cells.get('computed', 0)} computed, {cells.get('cached', 0)} cached "
            f"of {cells.get('total', '?')})"
        )
    if status.get("state") == "failed":
        print(f"repro: job failed: {status.get('error')}", file=sys.stderr)
        return 1
    if status.get("state") != "done":
        print(f"repro: timed out waiting for {job['id']}", file=sys.stderr)
        return 1
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for fmt in ("txt", "json", "csv"):
            blob = _http_bytes(
                f"{base}/api/v1/jobs/{job['id']}/artifacts/{fmt}",
                retries=args.retries,
                retry_deadline=args.retry_deadline,
            )
            path = os.path.join(args.out, f"{job['artifact']}.{fmt}")
            with open(path, "wb") as fh:
                fh.write(blob)
            if not args.quiet:
                print(f"  -> {path}")
    return 0


def _run_status(args: argparse.Namespace) -> int:
    """`repro status`: the queue summary, or one job's status document."""
    import urllib.error

    base = _service_url(args.url)
    try:
        if args.job:
            status = _http_json(
                f"{base}/api/v1/jobs/{args.job}",
                retries=args.retries,
                retry_deadline=args.retry_deadline,
            )
            print(json.dumps(status, indent=2, sort_keys=True))
            return 0
        listing = _http_json(
            f"{base}/api/v1/jobs",
            retries=args.retries,
            retry_deadline=args.retry_deadline,
        )
    except urllib.error.HTTPError as exc:
        print(f"repro: {exc.code} from {base}: {exc.reason}", file=sys.stderr)
        return 1
    except (urllib.error.URLError, OSError) as exc:
        print(f"repro: cannot reach {base}: {exc}", file=sys.stderr)
        return 1
    jobs = listing["jobs"]
    if not jobs:
        print(f"{base}: no jobs")
        return 0
    header = f"{'id':<14} {'state':<8} {'artifact':<26} {'done':>6} {'total':>6} {'computed':>9}"
    print(header)
    print("-" * len(header))
    for status in jobs:
        cells = status["cells"]
        total = "?" if cells["total"] is None else cells["total"]
        print(
            f"{status['id']:<14} {status['state']:<8} {status['artifact']:<26} "
            f"{cells['done']:>6} {total:>6} {cells['computed']:>9}"
        )
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    """`repro trace summarize|export` over a cache root's trace log."""
    from repro.obs.report import (
        export_trace_file,
        read_trace,
        render_summary,
        summarize_trace,
    )
    from repro.obs.trace import trace_path

    root = ResultStore(args.cache_dir).root
    records = read_trace(root)
    if not records:
        print(f"no trace records at {trace_path(root)}")
        print("record some with REPRO_TRACE=light|full (see docs/architecture.md)")
        return 1
    if args.action == "summarize":
        print(f"trace: {len(records)} record(s) at {trace_path(root)}")
        print()
        print(render_summary(summarize_trace(records, top=args.top)), end="")
        return 0
    out = args.out or os.path.join(root, "obs", "trace_chrome.json")
    n_events = export_trace_file(root, out)
    print(f"wrote {n_events} trace event(s) to {out}")
    print("load it in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _run_list_targets() -> int:
    """`repro targets`: list the registry."""
    width = max(len(name) for name in TARGETS)
    for name, target in TARGETS.items():
        print(f"{name:<{width}}  {target.description}  [{target.artifact}.txt]")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (the ``repro`` console script and ``python -m repro``)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "version", False) and args.command is None:
        from repro import __version__

        print(__version__)
        return 0
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "run":
        return _run_targets(args)
    if args.command == "report":
        return _run_targets(args, strict=args.strict)
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "cache":
        return _run_cache(args)
    if args.command == "workloads":
        return _run_workloads(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "submit":
        return _run_submit(args)
    if args.command == "status":
        return _run_status(args)
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "targets":
        return _run_list_targets()
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
