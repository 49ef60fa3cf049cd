"""The benchmark's four workloads and the loop that measures them.

A workload builds its inputs from the run's seed, sets itself up from cold
(fresh cache root, fresh kernel cache) one or more times, then repeats two
kinds of operation until the run's seconds are up:

* a *cold* operation computes every cell of its grid: the results store is
  empty, the compiled graphs are already on disk;
* a *warm* operation asks for the same grid again and is answered entirely
  from the results store.

Every operation's output is checked; an exception or a failed check counts
the operation as failed.  Cells run on an ``ExperimentEngine`` with
:data:`PARALLELISM` pool workers; the service runs two worker threads.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import sys
import threading
import time
import traceback
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis import runner
from repro.analysis.experiments import workload_sweep
from repro.analysis.store import ResultStore
from repro.analysis.targets import (
    TARGETS,
    TargetOutput,
    render_artifact_texts,
    workload_sweep_recorded_text,
)
from repro.serve.app import ReproServer
from repro.simulator import backend as sim_backend
from repro.simulator.execution import SimulationConfig
from repro.simulator.fastpath import simulate_compiled_batch
from repro.simulator.machine import shared_memory_node
from repro.workloads import parse_workload

#: Pool workers per engine: one per core of the 2-core machine the bounds
#: were calibrated on, pinned so a bigger machine runs the same load.
PARALLELISM = 2

#: Warm operations after each cold one: warm operations take milliseconds,
#: so several are needed for a steady median.
WARM_PER_COLD = 5


def now_ns() -> int:
    return time.perf_counter_ns()


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass
class Outcome:
    """What one operation produced, for checking."""

    artifacts: Dict[str, str]
    rows: List[Dict[str, Any]]
    computed: int
    cached: int
    extra: Dict[str, Any] = field(default_factory=dict)

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.artifacts):
            h.update(name.encode() + b"\0" + self.artifacts[name].encode() + b"\0")
        return h.hexdigest()


def check_rows(rows: Sequence[Dict[str, Any]]) -> None:
    """The paper's contract: every App_FIT selection meets its FIT threshold."""
    for row in rows:
        if row.get("policy") == "app_fit" and row.get("meets_threshold") is not True:
            raise CheckFailed(f"app_fit row misses its threshold: {row}")
        if row.get("threshold_respected") is False:
            raise CheckFailed(f"App_FIT threshold not respected: {row}")


class Recorder:
    """Times operations, checks them, and keeps one record per operation."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.ops: List[Dict[str, Any]] = []

    def run(
        self,
        kind: str,
        fn: Callable[[], Outcome],
        check: Callable[[str, Outcome], None],
        traced: Optional[bool] = False,
    ) -> Dict[str, Any]:
        """Run one operation of ``kind``; ``traced`` switches tracing for it.

        ``traced=None`` leaves the tracer alone (the service toggles it on a
        timer) and records the operation as unclassified.
        """
        tracer = self.tracer
        if tracer is not None and traced is not None:
            tracer.enabled = traced
        outcome: Optional[Outcome] = None
        error = None
        raised = False
        t0 = now_ns()
        try:
            outcome = fn()
        except Exception as exc:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            error, raised = f"{type(exc).__name__}: {exc}", True
        t1 = now_ns()
        if tracer is not None and traced is not None:
            tracer.enabled = False
        if outcome is not None:
            try:
                check(kind, outcome)
            except CheckFailed as exc:
                error = str(exc)[:500]
                print(f"check failed ({kind}): {error}", file=sys.stderr)
        op = {
            "kind": kind,
            "t0": t0,
            "t1": t1,
            "traced": bool(traced) if traced is not None else None,
            "cells": outcome.computed if outcome is not None else 0,
            "error": error,
            "raised": raised,
        }
        if outcome is not None:
            op.update(outcome.extra)
        self.ops.append(op)
        return op


def fresh_roots(root: str) -> str:
    """Point the program at empty caches under ``root``, like a first run.

    Returns the cache root, which holds the compiled graphs as it does for
    ``repro run --cache-dir``.
    """
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    os.environ["REPRO_KERNEL_CACHE"] = os.path.join(root, "kernels")
    sim_backend.reset_backends()
    runner.clear_caches()
    cache = os.path.join(root, "cache")
    runner.configure_graph_cache(enabled=True, root=cache)
    return cache


class Workload:
    """Seeded inputs, a set-up, and a measurement window."""

    name = ""
    #: Cold set-ups per run; ``setup_s`` is their median.  More would not fit
    #: the time all runs of the benchmark may take.
    n_setups = 2

    def __init__(self, seed: int, smoke: bool, workdir: str, repo: str, tracer=None) -> None:
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.repo = repo
        self.tracer = tracer
        self.root = ""
        self.cache = ""
        self.reference: Optional[str] = None

    def reset(self, index: int) -> None:
        """Untimed: fresh directories for set-up ``index``."""
        if self.root:
            shutil.rmtree(self.root, ignore_errors=True)
        self.root = os.path.join(self.workdir, f"setup{index}")
        self.cache = fresh_roots(self.root)

    def setup(self) -> Outcome:
        raise NotImplementedError

    def after_setups(self) -> None:
        """Untimed work between the set-ups and the window."""

    def window(self, recorder: Recorder, seconds: float) -> Dict[str, Any]:
        raise NotImplementedError

    def check(self, kind: str, outcome: Outcome) -> None:
        if kind == "warm" and outcome.computed:
            raise CheckFailed(f"warm operation computed {outcome.computed} cells")
        if kind != "warm" and (outcome.cached or not outcome.computed):
            raise CheckFailed(
                f"{kind} operation computed {outcome.computed}, cached {outcome.cached}"
            )
        check_rows(outcome.rows)
        self.check_reference(kind, outcome)

    def check_reference(self, kind: str, outcome: Outcome) -> None:
        """Every output must equal the first set-up's, byte for byte."""
        digest = outcome.digest()
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            raise CheckFailed(f"{kind} output differs from the first set-up's")


class BatchWorkload(Workload):
    """A grid run through an ``ExperimentEngine``: cold passes, then warm ones."""

    def __init__(self, seed: int, smoke: bool, workdir: str, repo: str, tracer=None) -> None:
        super().__init__(seed, smoke, workdir, repo, tracer)
        self.results = ""
        self.passes = 0

    def execute(self, engine: runner.ExperimentEngine) -> Tuple[Dict[str, str], List[dict]]:
        """Run the grid once; returns (artifact texts, rows)."""
        raise NotImplementedError

    def _pass(self) -> Outcome:
        engine = runner.ExperimentEngine(
            parallelism=PARALLELISM, fast=True, store=ResultStore(self.results)
        )
        artifacts, rows = self.execute(engine)
        return Outcome(artifacts, rows, engine.cells_computed, engine.cells_cached)

    def setup(self) -> Outcome:
        self.results = os.path.join(self.root, "results-0")
        return self._pass()

    def cold(self) -> Outcome:
        """A fresh results store and fresh process memos; graphs stay on disk."""
        self.passes += 1
        self.results = os.path.join(self.root, f"results-{self.passes}")
        runner.clear_caches()
        return self._pass()

    def warm(self) -> Outcome:
        """The same grid again, from the store the last cold pass filled."""
        runner.clear_caches()
        return self._pass()

    def window(self, recorder: Recorder, seconds: float) -> Dict[str, Any]:
        tracing = self.tracer is not None
        start = now_ns()
        deadline = start + int(seconds * 1e9)
        traced: List[Tuple[int, int]] = []
        i = 0
        # Traced runs alternate traced and untraced rounds, so one run also
        # measures the tracing overhead; they need two rounds for that.
        while True:
            on = tracing and i % 2 == 0
            ops = [recorder.run("cold", self.cold, self.check, on)]
            ops += [recorder.run("warm", self.warm, self.check, on) for _ in range(WARM_PER_COLD)]
            if on:
                traced += [(op["t0"], op["t1"]) for op in ops]
            i += 1
            if now_ns() >= deadline and (not tracing or i >= 2):
                break
        return {"start": start, "end": now_ns(), "traced": traced}


def _sweep_artifacts(result, meta: Dict[str, Any]) -> Tuple[Dict[str, str], List[dict]]:
    output = TargetOutput(
        result=result, text=workload_sweep_recorded_text(result), rows=list(result.rows)
    )
    return render_artifact_texts(output, meta), output.rows


class Figures(BatchWorkload):
    """The paper's seven figure and table targets at scale 0.2."""

    name = "figures"
    # One cold pass of all seven targets takes 15-23 s on 2 cores, so the
    # run sets up once instead of several times.
    n_setups = 1
    SMOKE_TARGETS = ("table1", "fig3", "fig4", "ablation-rates")

    def __init__(self, seed: int, smoke: bool, workdir: str, repo: str, tracer=None) -> None:
        super().__init__(seed, smoke, workdir, repo, tracer)
        self.scale = 0.05 if smoke else 0.2
        self.targets = self.SMOKE_TARGETS if smoke else tuple(TARGETS)
        # The committed goldens were rendered at scale 0.2 with seed 0.
        self.goldens: Dict[str, str] = {}
        if seed == 0 and not smoke:
            for name in self.targets:
                path = os.path.join(
                    repo, "benchmarks", "results", TARGETS[name].artifact + ".txt"
                )
                with open(path, "r", encoding="utf-8") as fh:
                    self.goldens[name] = fh.read()

    def execute(self, engine):
        artifacts: Dict[str, str] = {}
        rows: List[dict] = []
        for name in self.targets:
            output = TARGETS[name].build(self.scale, self.seed, engine, n_seeds=1)
            meta = {"scale": self.scale, "seed": self.seed, **output.meta}
            for fmt, text in render_artifact_texts(output, meta).items():
                artifacts[f"{name}.{fmt}"] = text
            rows.extend(output.rows)
        return artifacts, rows

    def check(self, kind: str, outcome: Outcome) -> None:
        super().check(kind, outcome)
        for name, golden in self.goldens.items():
            if outcome.artifacts[f"{name}.txt"] != golden:
                raise CheckFailed(f"{name} text differs from benchmarks/results")


class Synthetic(BatchWorkload):
    """Six synthetic families of about 10^4 tasks, kernel-dominated."""

    name = "synthetic"
    FAMILIES = (
        "layered:depth=200,width=100",
        "erdos:tasks=4000,p=0.002,sampling=skip",
        "forkjoin:stages=100,width=100",
        "pipeline:stages=20,items=1000",
        "wavefront:rows=120,cols=120",
        "mapreduce:maps=400,reduces=100,rounds=20",
    )
    SMOKE_FAMILIES = ("layered:depth=40,width=100", "wavefront:rows=50,cols=60")

    def __init__(self, seed: int, smoke: bool, workdir: str, repo: str, tracer=None) -> None:
        super().__init__(seed, smoke, workdir, repo, tracer)
        families = self.SMOKE_FAMILIES if smoke else self.FAMILIES
        self.workloads = [f"{family},seed={seed}" for family in families]

    def execute(self, engine):
        result = workload_sweep(
            self.workloads,
            multipliers=(10.0, 5.0),
            fault_rates=(0.0, 0.01, 0.05),
            n_seeds=8,
            seed=self.seed,
            engine=engine,
        )
        return _sweep_artifacts(result, {"seed": self.seed})


class Biggraph(BatchWorkload):
    """A 1.5*10^5-task layered graph: generation, mmap loads, out-of-core replay.

    Large enough that the python backend streams it in three chunks; a
    10^6-task graph takes about 75 s per run here, more than a run may.
    """

    name = "biggraph"
    SPEC = "layered:depth=300,width=500"
    SMOKE_SPEC = "layered:depth=40,width=250"
    #: The streamed replay: the python backend at a small crash probability.
    STREAM = SimulationConfig(crash_probability=0.001, collect_records=False)
    MACHINE = shared_memory_node(cores=16)

    def __init__(self, seed: int, smoke: bool, workdir: str, repo: str, tracer=None) -> None:
        super().__init__(seed, smoke, workdir, repo, tracer)
        self.spec = parse_workload(f"{self.SMOKE_SPEC if smoke else self.SPEC},seed={seed}").canonical
        if smoke:
            # Stream in chunks smaller than the smoke graph, as the full
            # graph streams in default-sized chunks.
            os.environ["REPRO_SIM_CHUNK_TASKS"] = "2048"
        self.stream_makespan: Optional[float] = None

    def execute(self, engine):
        result = workload_sweep(
            [self.spec],
            multipliers=(10.0,),
            fault_rates=(0.0, 0.01),
            n_seeds=2,
            seed=self.seed,
            engine=engine,
        )
        return _sweep_artifacts(result, {"seed": self.seed})

    def _replay(self, backend: Optional[str]) -> float:
        cache = runner.compiled_sim_cache(self.spec, 1.0)
        return simulate_compiled_batch(
            cache, self.MACHINE, self.STREAM, seeds=(self.seed,), backend=backend
        )[0].makespan_s

    def after_setups(self) -> None:
        # The reference the streamed replay must match: the default backend.
        self.stream_makespan = self._replay(None)

    def cold(self) -> Outcome:
        outcome = super().cold()
        t0 = now_ns()
        outcome.extra["stream_makespan"] = self._replay("python")
        outcome.extra["stream_s"] = (now_ns() - t0) / 1e9
        return outcome

    def check(self, kind: str, outcome: Outcome) -> None:
        super().check(kind, outcome)
        makespan = outcome.extra.get("stream_makespan")
        if makespan is not None and makespan != self.stream_makespan:
            raise CheckFailed(
                f"streamed makespan {makespan!r} != default backend {self.stream_makespan!r}"
            )


# ---------------------------------------------------------------------------
# the sweep service
# ---------------------------------------------------------------------------

_OPENER = urllib.request.build_opener(urllib.request.ProxyHandler({}))


def _http(url: str, body: Optional[Dict[str, Any]] = None) -> bytes:
    """One request to the local service; an HTTP error status raises."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    headers = {"Content-Type": "application/json"} if data is not None else {}
    with _OPENER.open(urllib.request.Request(url, data=data, headers=headers), timeout=60) as resp:
        return resp.read()


class Serve(Workload):
    """A closed loop of two clients against an in-process ``ReproServer``."""

    name = "serve"
    #: Client status-poll interval while a job runs.
    POLL_S = 0.005
    JOB_TIMEOUT_S = 60.0

    def __init__(self, seed: int, smoke: bool, workdir: str, repo: str, tracer=None) -> None:
        super().__init__(seed, smoke, workdir, repo, tracer)
        # Smoke runs keep the cold job: with a smaller one the two clients'
        # jobs fall out of step and warm latency swings by half.
        self.warm_request = (
            {"target": "fig3", "scale": 0.05} if smoke else {"target": "fig5", "scale": 0.2}
        )
        self.cold_workload = f"layered:depth=60,width=50,seed={seed}"
        self.job_seeds = random.Random(seed)
        self.server: Optional[ReproServer] = None
        self._submit = self._status = self._artifact = _http
        if tracer is not None:
            self._submit = tracer.wrap(_http, "serve.http_submit")
            self._status = tracer.wrap(_http, "serve.http_status")
            self._artifact = tracer.wrap(_http, "serve.http_artifact")

    def _start(self) -> ReproServer:
        self.server = ReproServer(root=self.cache, host="127.0.0.1", port=0, workers=2).start()
        return self.server

    def _stop(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def reset(self, index: int) -> None:
        self._stop()
        super().reset(index)

    def setup(self) -> Outcome:
        """Start a service on empty caches and run its first (cold) job."""
        return self._job(self._start().url, self.warm_request)

    def after_setups(self) -> None:
        self._stop()

    def _job(self, base: str, request: Dict[str, Any]) -> Outcome:
        """Submit, poll until finished, fetch the JSON artifact."""
        t0 = now_ns()
        job_id = json.loads(self._submit(base + "/api/v1/jobs", request))["job"]["id"]
        submitted = now_ns()
        status_url = f"{base}/api/v1/jobs/{job_id}"
        polls = 0
        while True:
            status = json.loads(self._status(status_url))
            polls += 1
            if status["state"] in ("done", "failed"):
                break
            if now_ns() - t0 > self.JOB_TIMEOUT_S * 1e9:
                raise TimeoutError(f"job {job_id} unfinished after {self.JOB_TIMEOUT_S} s")
            time.sleep(self.POLL_S)
        if status["state"] != "done":
            raise CheckFailed(f"job {job_id} failed: {status.get('error')}")
        artifact = self._artifact(status_url + "/artifacts/json").decode("utf-8")
        return Outcome(
            {"json": artifact},
            json.loads(artifact)["rows"],
            status["cells"]["computed"],
            status["cells"]["cached"],
            {"submitted": submitted, "polls": polls},
        )

    def check(self, kind: str, outcome: Outcome) -> None:
        # A finished job's cell counts are checked only where they cannot
        # race.  Job status reads the journal before the done marker, so a
        # read as the job finishes can show it done without its last cell;
        # and a worker marks a shared job done while its peer's event for
        # the last cell may be unwritten, so that cell shows as cached.
        # Warm jobs have no computed events to lose.
        if kind == "warm" and outcome.computed:
            raise CheckFailed(f"warm job computed {outcome.computed} cells")
        if kind != "warm" and not outcome.computed:
            raise CheckFailed(f"{kind} job computed no cells")
        check_rows(outcome.rows)
        if kind == "cold":
            # Cold jobs differ from each other (fresh job seeds): check them
            # against the contract, not against a reference.
            if len(outcome.rows) != 4:
                raise CheckFailed(f"cold job returned {len(outcome.rows)} rows, want 4")
            return
        self.check_reference(kind, outcome)

    def window(self, recorder: Recorder, seconds: float) -> Dict[str, Any]:
        # A service started fresh has both workers polling in step, which
        # keeps the closed loop in the same phase from run to run.
        runner.clear_caches()
        base = self._start().url

        def cold_request() -> Dict[str, Any]:
            return {
                "workloads": [self.cold_workload],
                "seed": self.job_seeds.randrange(2**31),
                "n_seeds": 4,
            }

        # One untimed job of each kind first: a new service's first jobs
        # wait on its lazy start-up and take two to four times as long.
        for kind, request in (("warm", lambda: self.warm_request), ("cold", cold_request)):
            recorder.run(
                "warmup", lambda: self._job(base, request()), lambda _, out: self.check(kind, out)
            )
        start = now_ns()
        deadline = start + int(seconds * 1e9)
        slices = _Slices(self.tracer, start, seconds)

        def client(kind: str, request: Callable[[], Dict[str, Any]]) -> None:
            while now_ns() < deadline:
                state = slices.state()
                op = recorder.run(kind, lambda: self._job(base, request()), self.check, None)
                op["traced"] = slices.classify(state)

        threads = [
            threading.Thread(target=client, args=("warm", lambda: self.warm_request)),
            threading.Thread(target=client, args=("cold", cold_request)),
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            slices.stop()
            self._stop()
        end = max(op["t1"] for op in recorder.ops)
        return {"start": start, "end": end, "traced": slices.traced(end)}


class _Slices:
    """Alternating traced and untraced time slices of the service window.

    Service operations overlap, so a traced run switches tracing on a timer
    instead of per operation; an operation belongs to a slice only if no
    switch happened while it ran.  Slices last a fifth of the window, and at
    least twice a job's latency.
    """

    def __init__(self, tracer, start: int, seconds: float) -> None:
        self.tracer = tracer
        self.epoch = 0
        self.switches = [start]
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        if tracer is not None:
            tracer.enabled = True
            self._thread = threading.Thread(
                target=self._run, args=(max(seconds / 5, 0.5),), daemon=True
            )
            self._thread.start()

    def _run(self, period: float) -> None:
        while not self._stop.wait(period):
            self.tracer.enabled = not self.tracer.enabled
            self.epoch += 1
            self.switches.append(now_ns())

    def state(self) -> Tuple[int, bool]:
        return self.epoch, self.tracer is not None and self.tracer.enabled

    def classify(self, before: Tuple[int, bool]) -> Optional[bool]:
        return before[1] if self.epoch == before[0] else None

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
        if self.tracer is not None:
            self.tracer.enabled = False

    def traced(self, end: int) -> List[Tuple[int, int]]:
        """The traced slices (even-numbered: tracing starts on)."""
        if self.tracer is None:
            return []
        bounds = self.switches + [end]
        return [(bounds[k], bounds[k + 1]) for k in range(0, len(bounds) - 1, 2)]


WORKLOADS = {cls.name: cls for cls in (Figures, Synthetic, Biggraph, Serve)}
