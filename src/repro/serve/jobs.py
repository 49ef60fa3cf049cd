"""The sweep-service job queue: submitted grids, progress events, markers.

A *job* is one submitted sweep — a named figure/table target or an arbitrary
benchmark/workload grid — persisted as a small JSON document under
``<cache root>/serve/jobs/``.  Everything else about a job is **derived**
state: which cells are done is answered by the shared
:class:`~repro.analysis.store.ResultStore`, who is computing what by the
lease files (:mod:`repro.serve.leases`), and per-cell history by an
append-only events journal next to the job document.  That keeps the queue
crash-safe with no database and no coordinator: any number of workers (local
threads or ``repro serve --worker`` processes on other machines) discover
jobs by listing one directory and drain them through the lease protocol.

Files of one job (all under ``serve/jobs/``):

* ``<id>.job.json``    — the submission: normalized request + artifact stem.
* ``<id>.events.jsonl``— append-only progress: ``plan`` events announce the
  cell grid (emitted by each drain as it learns it), ``cell`` events record
  one finished cell (computed or cache hit) with its owner.
* ``<id>.done.json``   — completion marker, written once by the first worker
  whose drain finishes; later finishers are no-ops.
* ``<id>.failed.json`` — failure marker with the first error.

Documents and markers are written through :mod:`repro.util.durable`, so a
marker's name never exists before its whole document does.

Requests never carry timestamps or ids into artifact metadata, so a job's
artifacts are byte-identical across submissions, workers, and machines.
"""

from __future__ import annotations

import json
import math
import os
import secrets
import time
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.analysis.runner import ExperimentEngine, ExperimentSpec
from repro.analysis.store import ResultStore, StoreRecord, code_version
from repro.analysis.targets import (
    TARGETS,
    TargetOutput,
    render_artifact_texts,
    workload_sweep_recorded_text,
)
from repro.util import durable
from repro.util.retry import RetryPolicy, retry_call

#: Job files live here, under the shared cache root.
JOBS_SUBDIR = os.path.join("serve", "jobs")

#: Worker liveness files live here (see :mod:`repro.serve.workers`).
WORKERS_SUBDIR = os.path.join("serve", "workers")

#: Policies accepted by grid requests (mirrors ``experiments.SWEEP_POLICIES``
#: lazily — importing the driver module here would defeat the lazy CLI).
_MAX_EVENT_KEYS_PER_LINE = 100


class JobValidationError(ValueError):
    """A submitted request is malformed (unknown target, bad grid, ...)."""


class JobIncompleteError(RuntimeError):
    """Artifacts were requested for a job whose cells are not all computed."""


class _ComposeStore(ResultStore):
    """A read-only store view for artifact composition: misses are errors.

    Artifact requests must never trigger computation in the serving process —
    a miss means the job is simply not done yet, reported as
    :class:`JobIncompleteError` (the HTTP layer maps it to 409).
    """

    def get(self, spec: ExperimentSpec) -> Optional[StoreRecord]:
        """Like the parent, but a miss raises :class:`JobIncompleteError`."""
        record = super().get(spec)
        if record is None:
            raise JobIncompleteError(
                f"cell not yet computed: kind={spec.kind} benchmark={spec.benchmark}"
            )
        return record

    def put(self, spec, payload, elapsed_s=None):  # pragma: no cover - guarded by get
        """Composition never writes; get() raises before any compute."""
        raise JobIncompleteError("artifact composition attempted to compute a cell")


# ---------------------------------------------------------------------------------
# request normalisation
# ---------------------------------------------------------------------------------


def _number(value: Any, name: str, minimum: float) -> float:
    """One validated numeric field: a finite number ``>= minimum``."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise JobValidationError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(number) or number < minimum:
        raise JobValidationError(f"{name} must be a finite number >= {minimum}, got {value!r}")
    return number


def check_scale(value: Any) -> float:
    """A problem scale (request field and CLI flag): a finite number >= 1e-6."""
    return _number(value, "scale", 1e-6)


def check_n_seeds(value: Any) -> int:
    """A fault-seed count (request field and CLI flag): a whole number >= 1."""
    number = _number(value, "n_seeds", 1)
    if not number.is_integer():
        raise JobValidationError(f"n_seeds must be a whole number, got {value!r}")
    return int(number)


def _float_list(doc: Dict[str, Any], name: str, default: List[float]) -> List[float]:
    """One validated list-of-numbers request field."""
    values = doc.get(name, default)
    if not isinstance(values, (list, tuple)) or not values:
        raise JobValidationError(f"{name} must be a non-empty list of numbers")
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError):
        raise JobValidationError(f"{name} must be a non-empty list of numbers")


def _str_list(doc: Dict[str, Any], name: str) -> List[str]:
    """One validated list-of-strings request field."""
    values = doc.get(name)
    if not isinstance(values, (list, tuple)) or not values:
        raise JobValidationError(f"{name} must be a non-empty list of strings")
    if not all(isinstance(v, str) for v in values):
        raise JobValidationError(f"{name} must be a non-empty list of strings")
    return list(values)


def normalize_request(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Validate a submission and return its canonical request document.

    Three request shapes are accepted (``type`` is inferred when omitted):

    * ``{"target": "fig5", ...}`` — one registry target;
    * ``{"workloads": [SPEC, ...], ...}`` — a workload sweep grid
      (policies x multipliers x fault rates over canonical workload specs);
    * ``{"benchmarks": [NAME, ...], ...}`` — a Table-I policy sweep grid.

    Shared knobs: ``scale`` (default 1.0), ``seed`` (0), ``n_seeds`` (1),
    ``fast`` (true), plus the grid-specific lists.  Workload specs are
    canonicalised here so differently spelled but identical sweeps share
    cells — and therefore cache hits — with each other and with the CLI.
    """
    if not isinstance(doc, dict):
        raise JobValidationError("request body must be a JSON object")
    kind = doc.get("type")
    if kind is None:
        if "target" in doc:
            kind = "target"
        elif "workloads" in doc:
            kind = "workload_sweep"
        elif "benchmarks" in doc:
            kind = "sweep"
        else:
            raise JobValidationError(
                "request needs one of: target, workloads, benchmarks"
            )
    request: Dict[str, Any] = {
        "type": kind,
        "scale": check_scale(doc.get("scale", 1.0)),
        "seed": int(_number(doc.get("seed", 0), "seed", -(2**62))),
        "n_seeds": check_n_seeds(doc.get("n_seeds", 1)),
        "fast": bool(doc.get("fast", True)),
    }
    if kind == "target":
        name = doc.get("target")
        if name not in TARGETS:
            raise JobValidationError(
                f"unknown target {name!r}; known: {', '.join(sorted(TARGETS))}"
            )
        request["target"] = name
        return request

    from repro.analysis.experiments import SWEEP_POLICIES

    policies = doc.get("policies", ["app_fit"])
    if not isinstance(policies, (list, tuple)) or not policies:
        raise JobValidationError("policies must be a non-empty list")
    for policy in policies:
        if policy not in SWEEP_POLICIES:
            raise JobValidationError(
                f"unknown policy {policy!r}; known: {sorted(SWEEP_POLICIES)}"
            )
    request["policies"] = list(policies)
    request["multipliers"] = _float_list(doc, "multipliers", [10.0, 5.0])
    request["residual_fit_factor"] = _number(
        doc.get("residual_fit_factor", 0.0), "residual_fit_factor", 0.0
    )

    if kind == "workload_sweep":
        from repro.workloads.spec import parse_workload

        try:
            request["workloads"] = [
                parse_workload(w).canonical for w in _str_list(doc, "workloads")
            ]
        except (KeyError, ValueError) as exc:
            raise JobValidationError(str(exc.args[0]))
        request["fault_rates"] = _float_list(doc, "fault_rates", [0.0, 0.01])
        return request

    if kind == "sweep":
        from repro.apps.registry import all_benchmark_names

        known = set(all_benchmark_names())
        benchmarks = _str_list(doc, "benchmarks")
        unknown = [b for b in benchmarks if b not in known]
        if unknown:
            raise JobValidationError(
                f"unknown benchmarks {unknown}; known: {sorted(known)}"
            )
        request["benchmarks"] = benchmarks
        return request

    raise JobValidationError(f"unknown request type {kind!r}")


def artifact_stem(request: Dict[str, Any]) -> str:
    """The artifact file stem of a request (mirrors the CLI's naming)."""
    if request["type"] == "target":
        return TARGETS[request["target"]].artifact
    return "workload_sweep" if request["type"] == "workload_sweep" else "sweep"


# ---------------------------------------------------------------------------------
# request execution (drain and compose share this)
# ---------------------------------------------------------------------------------


def execute_request(
    request: Dict[str, Any], engine: ExperimentEngine
) -> Tuple[TargetOutput, Dict[str, Any]]:
    """Run a normalized request on an engine; return (output, artifact meta).

    This is the *only* place requests are turned into cell grids — workers
    drain through it with a lease-aware engine, and the artifact endpoint
    re-runs it with a read-only engine over the warm store (zero computed
    cells by construction) — so there is no separately maintained grid
    enumeration to drift out of sync with the experiment drivers.

    ``meta`` carries only deterministic provenance, never timestamps or job
    ids, so artifacts are byte-identical across submissions and workers.
    """
    meta: Dict[str, Any] = {
        "scale": request["scale"],
        "seed": request["seed"],
        "n_seeds": request["n_seeds"],
        "fast": engine.fast,
        "code_version": code_version(),
    }
    if request["type"] == "target":
        target = TARGETS[request["target"]]
        output = target.build(
            request["scale"], request["seed"], engine, n_seeds=request["n_seeds"]
        )
        return output, {**meta, "target": target.name, **output.meta}

    if request["type"] == "workload_sweep":
        from repro.analysis.experiments import workload_sweep

        result = workload_sweep(
            workloads=request["workloads"],
            policies=request["policies"],
            multipliers=request["multipliers"],
            fault_rates=request["fault_rates"],
            scale=request["scale"],
            seed=request["seed"],
            n_seeds=request["n_seeds"],
            residual_fit_factor=request["residual_fit_factor"],
            engine=engine,
        )
        output = TargetOutput(
            result=result,
            text=workload_sweep_recorded_text(result),
            rows=list(result.rows),
        )
        return output, {
            **meta,
            "target": "workload-sweep",
            "workloads": sorted({str(r["workload"]) for r in result.rows}),
            "policies": list(request["policies"]),
            "multipliers": list(request["multipliers"]),
            "fault_rates": list(request["fault_rates"]),
        }

    from repro.analysis.experiments import sweep_policies

    result = sweep_policies(
        benchmarks=request["benchmarks"],
        policies=request["policies"],
        multipliers=request["multipliers"],
        scale=request["scale"],
        seed=request["seed"],
        residual_fit_factor=request["residual_fit_factor"],
        engine=engine,
    )
    output = TargetOutput(result=result, text=result.render(), rows=list(result.rows))
    return output, {
        **meta,
        "target": "sweep",
        "benchmarks": list(request["benchmarks"]),
        "policies": list(request["policies"]),
        "multipliers": list(request["multipliers"]),
    }


def compose_artifacts(
    request: Dict[str, Any], root: Optional[str] = None
) -> Dict[str, str]:
    """Render a finished job's txt/json/csv artifacts from the warm store.

    Raises :class:`JobIncompleteError` if any cell is missing — composition
    is strictly read-only, so it is cheap enough to run per HTTP request.
    """
    engine = ExperimentEngine(
        parallelism=1, fast=request["fast"], store=_ComposeStore(root)
    )
    output, meta = execute_request(request, engine)
    return render_artifact_texts(output, meta)


# ---------------------------------------------------------------------------------
# the on-disk job queue
# ---------------------------------------------------------------------------------


def _job_ids(names: List[str], suffix: str) -> Set[str]:
    """The job ids among directory entries ending in ``suffix``."""
    return {name[: -len(suffix)] for name in names if name.endswith(suffix)}


def new_job_id() -> str:
    """A fresh job id: every submission is its own job (dedup happens at the
    *cell* level through the content-addressed store, which is what makes a
    warm resubmission drain with zero computed cells)."""
    return "j" + secrets.token_hex(6)


class JobStore:
    """The ``serve/jobs`` directory: submissions, events, and state markers."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.store = ResultStore(root)
        self.root = self.store.root
        self.jobs_dir = os.path.join(self.root, JOBS_SUBDIR)

    # -- paths ----------------------------------------------------------------

    def job_path(self, job_id: str) -> str:
        """The submission document of a job."""
        return os.path.join(self.jobs_dir, f"{job_id}.job.json")

    def events_path(self, job_id: str) -> str:
        """The append-only events journal of a job."""
        return os.path.join(self.jobs_dir, f"{job_id}.events.jsonl")

    def done_path(self, job_id: str) -> str:
        """The completion marker of a job."""
        return os.path.join(self.jobs_dir, f"{job_id}.done.json")

    def failed_path(self, job_id: str) -> str:
        """The failure marker of a job."""
        return os.path.join(self.jobs_dir, f"{job_id}.failed.json")

    # -- submission ------------------------------------------------------------

    def submit(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        """Validate and enqueue one request; returns the job document."""
        request = normalize_request(doc)
        job = {
            "id": new_job_id(),
            "created_at": time.time(),
            "request": request,
            "artifact": artifact_stem(request),
        }
        durable.publish(self.job_path(job["id"]), json.dumps(job, sort_keys=True))
        return job

    def get(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Load one job document, or ``None``."""
        return durable.read_json(self.job_path(job_id))

    def _load(self, ids: Set[str]) -> List[Dict[str, Any]]:
        """The readable job documents of ``ids``, oldest first."""
        jobs = [job for job in map(self.get, ids) if job is not None]
        jobs.sort(key=lambda j: (j.get("created_at", 0.0), j.get("id", "")))
        return jobs

    def _listing(self) -> List[str]:
        """The entries of the jobs directory (none before the first submit)."""
        try:
            return os.listdir(self.jobs_dir)
        except OSError:
            return []

    def list_jobs(self) -> List[Dict[str, Any]]:
        """Every job document, oldest first."""
        return self._load(_job_ids(self._listing(), ".job.json"))

    def pending_jobs(self) -> List[Dict[str, Any]]:
        """Jobs with no done/failed marker, oldest first (the drain order).

        Markers are matched against the same directory listing as the job
        documents, so a scan opens only the pending jobs' documents: every
        submission wakes every embedded worker, and a long-lived queue is
        mostly finished jobs.
        """
        names = self._listing()
        finished = _job_ids(names, ".done.json") | _job_ids(names, ".failed.json")
        return self._load(_job_ids(names, ".job.json") - finished)

    # -- events ----------------------------------------------------------------

    def append_event(self, job_id: str, event: Dict[str, Any]) -> None:
        """Append one progress event (one JSON line).

        Lines are kept far under the POSIX atomic-append pipe-buffer bound
        (plan events chunk their key lists), so concurrent workers appending
        to the same journal never interleave bytes.  The append is retried
        with a short backoff: losing a progress event to a transient
        fd-exhaustion blip would silently skew the status accounting.
        """
        line = json.dumps(event, sort_keys=True)

        def _append() -> None:
            with open(self.events_path(job_id), "a", encoding="utf-8") as fh:
                fh.write(line + "\n")

        retry_call(
            _append,
            policy=RetryPolicy(max_attempts=3, base_delay_s=0.01, max_delay_s=0.1),
            retryable=(OSError,),
            describe=f"append event to job {job_id}",
        )

    def append_plan_event(self, job_id: str, keys: List[str], owner: str) -> None:
        """Announce one engine grid: total cell count plus (chunked) keys."""
        for i in range(0, len(keys), _MAX_EVENT_KEYS_PER_LINE):
            chunk = keys[i : i + _MAX_EVENT_KEYS_PER_LINE]
            self.append_event(
                job_id,
                {"type": "plan", "keys": chunk, "total": len(keys), "owner": owner},
            )

    def events(
        self, job_id: str, offset: int = 0
    ) -> Tuple[List[Dict[str, Any]], int]:
        """Events from ``offset`` (a line index) plus the next offset."""
        events: List[Dict[str, Any]] = []
        next_offset = offset
        try:
            with open(self.events_path(job_id), "r", encoding="utf-8") as fh:
                for i, line in enumerate(fh):
                    if i < offset or not line.endswith("\n"):
                        continue
                    try:
                        events.append(json.loads(line))
                        next_offset = i + 1
                    except ValueError:  # pragma: no cover - torn line, skip
                        continue
        except OSError:
            pass
        return events, next_offset

    # -- markers ---------------------------------------------------------------

    def mark_done(self, job_id: str, summary: Dict[str, Any]) -> bool:
        """Record completion (first finishing worker wins; others no-op)."""
        doc = {**summary, "finished_at": time.time()}
        return durable.create_once(self.done_path(job_id), json.dumps(doc, sort_keys=True))

    def mark_failed(
        self,
        job_id: str,
        owner: str,
        message: str,
        quarantined: Optional[List[Dict[str, Any]]] = None,
    ) -> bool:
        """Record failure with the first error (and any quarantined cells)."""
        doc: Dict[str, Any] = {
            "owner": owner, "error": message, "failed_at": time.time()
        }
        if quarantined:
            doc["quarantined"] = quarantined
        return durable.create_once(self.failed_path(job_id), json.dumps(doc, sort_keys=True))

    # -- derived status --------------------------------------------------------

    def status(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The aggregate state of one job, derived from markers and events.

        Cell accounting comes from the journal: ``total`` is the union of all
        announced plan keys, ``computed`` counts computed-cell events (each
        cell is computed exactly once globally, so this equals the number of
        distinct computed keys unless a lease was reclaimed from a paused
        worker — a genuine duplicate, deliberately visible here), ``cached``
        counts cells that only ever hit the cache.
        """
        job = self.get(job_id)
        if job is None:
            return None
        # Markers first: a worker writes its done marker only after its last
        # cell event, so a journal read that follows the marker read holds
        # every cell of a job reported done.  Read the other way round, a
        # job finishing in between would show done with cells missing.
        done = durable.read_json(self.done_path(job_id))
        failed = durable.read_json(self.failed_path(job_id))
        events, _ = self.events(job_id)
        plan_keys: set = set()
        computed_keys: set = set()
        seen_keys: set = set()
        computed_events = 0
        retry_events = 0
        compute_s = 0.0
        workers: Dict[str, Dict[str, int]] = {}
        quarantined: Dict[str, Dict[str, Any]] = {}
        for event in events:
            owner = str(event.get("owner", "?"))
            if event.get("type") == "plan":
                plan_keys.update(event.get("keys", ()))
            elif event.get("type") == "cell":
                key = event.get("key", "?")
                seen_keys.add(key)
                # Cached cells carry the *original* compute cost from their
                # store record, so compute_s reflects the grid's true cost
                # even on a fully warm re-run.
                try:
                    compute_s += float(event.get("elapsed_s", 0.0) or 0.0)
                except (TypeError, ValueError):
                    pass
                stats = workers.setdefault(owner, {"computed": 0, "cached": 0})
                if event.get("cached"):
                    stats["cached"] += 1
                else:
                    stats["computed"] += 1
                    computed_events += 1
                    computed_keys.add(key)
            elif event.get("type") == "retry":
                retry_events += 1
                stats = workers.setdefault(owner, {"computed": 0, "cached": 0})
                stats["retries"] = stats.get("retries", 0) + 1
            elif event.get("type") == "quarantine":
                # Several drains may report the same poisoned cell; the
                # tombstone is write-once, so any copy of the document works.
                quarantined[str(event.get("key", "?"))] = {
                    "key": event.get("key"),
                    "attempts": event.get("attempts"),
                    "errors": event.get("errors", []),
                }
        if failed is not None:
            state = "failed"
        elif done is not None:
            state = "done"
        elif events:
            state = "running"
        else:
            state = "pending"
        total = len(plan_keys) if plan_keys else None
        return {
            "id": job_id,
            "state": state,
            "created_at": job.get("created_at"),
            "artifact": job.get("artifact"),
            "request": job.get("request"),
            "cells": {
                "total": total,
                "done": len(seen_keys),
                "computed": computed_events,
                "cached": len(seen_keys - computed_keys),
                "retries": retry_events,
                "compute_s": round(compute_s, 6),
            },
            "workers": workers,
            "quarantined": sorted(quarantined.values(), key=lambda q: str(q["key"])),
            "finished_at": (done or {}).get("finished_at"),
            "error": (failed or {}).get("error"),
        }
