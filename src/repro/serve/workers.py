"""Sweep workers: lease-coordinated drain of job grids over the shared store.

A worker — an in-process thread of ``repro serve --workers N`` or a separate
``repro serve --worker`` process, possibly on another machine — repeatedly
scans the job queue and *drains* each unfinished job: it runs the job's
request through the ordinary experiment drivers, but on a
:class:`LeaseDrainEngine` whose ``map`` claims each missing cell through the
lease protocol before computing it.  N workers pointed at one cache root
therefore shard a grid automatically: every cell is computed by exactly the
worker that won its lease, everyone else observes the result as a cache hit,
and a crashed worker's claims expire and are recomputed by the survivors.

The drain makes no assumptions about which worker started first, how many
there are, or whether they share a machine — the shared filesystem is the
entire coordination plane.
"""

from __future__ import annotations

import json
import os
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import settings
from repro.analysis.runner import ExperimentEngine, ExperimentSpec, run_cell
from repro.analysis.store import ResultStore
from repro.obs.metrics import inc as metrics_inc
from repro.obs.metrics import observe as metrics_observe
from repro.obs.metrics import write_snapshot
from repro.obs.trace import trace_span
from repro.serve.chaos import ChaosInjectedCellError, WorkerKilled, active_chaos
from repro.serve.jobs import WORKERS_SUBDIR, JobStore, execute_request
from repro.serve.leases import LeaseHeartbeat, LeaseStore, default_owner_id
from repro.util.retry import RetryPolicy, retry_call

#: How often a worker republishes its liveness file (seconds).
LIVENESS_INTERVAL_S: float = 2.0

#: Default crash-loop cap: a worker slot is restarted at most this many times.
DEFAULT_MAX_RESTARTS: int = 5

#: An event sink: receives plan/cell/error dicts (the job journal appender).
EventSink = Callable[[Dict[str, Any]], None]


class CellQuarantinedError(RuntimeError):
    """A cell exhausted its attempt budget and is poisoned.

    Raised by the drain when it meets (or writes) a poison tombstone; it
    carries the cell's collected failure chain so the job's ``failed`` marker
    — and therefore ``repro status`` — shows *why* the cell kept dying, not
    just that it did.
    """

    def __init__(self, key: str, poison: Dict[str, Any]) -> None:
        errors = "; ".join(
            str(e.get("error", "?")) for e in poison.get("errors", [])
        ) or "no recorded errors"
        super().__init__(
            f"cell {key[:12]} quarantined after "
            f"{poison.get('attempts', '?')} failed attempt(s): {errors}"
        )
        self.key = key
        self.poison = poison


class LeaseDrainEngine(ExperimentEngine):
    """An :class:`ExperimentEngine` whose grid execution is lease-sharded.

    Drop-in for the experiment drivers: ``map`` still returns payloads in
    spec order and the ``cells_computed`` / ``cells_cached`` counters keep
    their meaning — but a miss is only computed after winning the cell's
    lease, and a cell leased elsewhere is awaited (poll the store; reclaim
    and compute it ourselves if the lease expires unrenewed).

    Exactly-once argument, per cell: the store is re-checked *after* the
    lease is won (a previous holder may have committed between our miss and
    our acquire), so a compute happens only under a held lease on a key with
    no record; lease acquisition is single-winner; and the heartbeat renews
    the lease for as long as the compute runs.  Only a holder paused beyond
    its TTL can duplicate work — detected via the heartbeat's lost set and
    harmless, since cells are deterministic and record writes atomic.
    """

    def __init__(
        self,
        store: ResultStore,
        leases: LeaseStore,
        heartbeat: LeaseHeartbeat,
        emit: Optional[EventSink] = None,
        plan: Optional[Callable[[List[str]], None]] = None,
        fast: Optional[bool] = None,
        poll_interval_s: Optional[float] = None,
        stop: Optional[threading.Event] = None,
        hard_kill: bool = False,
    ) -> None:
        super().__init__(parallelism=1, fast=fast, store=store, force=False)
        self.leases = leases
        self.heartbeat = heartbeat
        self.emit = emit
        self.plan = plan
        #: How long to sleep when every remaining cell is leased elsewhere.
        self.poll_interval_s = (
            float(poll_interval_s)
            if poll_interval_s is not None
            else min(0.25, leases.ttl_s / 4.0)
        )
        self._stop = stop if stop is not None else threading.Event()
        #: Cells this engine computed although the lease was lost mid-compute
        #: (duplicate work after a pause beyond the TTL; counted, not hidden).
        self.cells_duplicated = 0
        #: Cell attempts that failed and were left for a later claim.
        self.cells_retried = 0
        #: Whether injected worker kills should be delivered as a genuine
        #: SIGKILL (worker processes) or a :class:`WorkerKilled` raise
        #: (worker threads, restartable by the supervisor).
        self.hard_kill = hard_kill
        self._chaos = active_chaos(store.root)

    def map(self, specs: Sequence[ExperimentSpec]) -> List[Any]:
        """Drain one grid: claim-compute-release misses, await foreign leases."""
        specs = list(specs)
        total = len(specs)
        keys = [self.store.key(spec) for spec in specs]
        if self.plan is not None:
            self.plan(keys)
        computed0, cached0 = self.cells_computed, self.cells_cached
        payloads: List[Any] = [None] * total
        pending = set(range(total))
        while pending:
            if self._stop.is_set():
                raise RuntimeError("drain interrupted by shutdown")
            progressed = False
            for i in sorted(pending):
                if self._fill(specs[i], keys[i], payloads, i):
                    pending.discard(i)
                    progressed = True
            if pending and not progressed:
                # Every remaining cell is leased by another worker: wait for
                # results to land (or leases to expire) instead of spinning.
                time.sleep(self.poll_interval_s)
        self.last_stats = (
            self.cells_computed - computed0,
            self.cells_cached - cached0,
        )
        return payloads

    def _fill(
        self, spec: ExperimentSpec, key: str, payloads: List[Any], i: int
    ) -> bool:
        """Try to finish one cell; ``True`` when ``payloads[i]`` is set.

        The failure path per attempt: the attempt is first *claimed* in the
        on-disk registry (single-winner, crash-persistent — a killed worker's
        attempt still counts), an attempt that raises records its error and
        returns the cell to the pending pool, and the attempt that exhausts
        the budget writes the poison tombstone and raises
        :class:`CellQuarantinedError` so the job fails fast instead of
        hanging its pollers.  Chaos faults (kill / stall / slow / injected
        failure) key off the durable attempt ordinal, which is what makes an
        injected schedule identical across retries, restarts, and replays.
        """
        record = self.store.get(spec)
        if record is not None:
            payloads[i] = record.payload
            self._count_cached(spec, key, record.elapsed_s)
            return True
        poison = self.store.read_poison(key)
        if poison is not None:
            raise CellQuarantinedError(key, poison)
        owner = self.leases.owner
        with trace_span(self._tracer, "cell.claim", key, worker=owner) as claim_span:
            if not self.leases.acquire(key):
                # A lost claim race is a non-event: it happens once per poll
                # for every foreign-leased cell, so the span is discarded.
                claim_span.cancel()
                return False  # live foreign lease: poll again later
        skip_release = False
        with trace_span(
            self._tracer,
            "cell",
            key,
            worker=owner,
            cell_kind=spec.kind,
            benchmark=spec.benchmark,
        ) as cell_span:
            try:
                # Re-check under the lease: the previous holder may have
                # committed (or poisoned) between our store miss and our acquire.
                record = self.store.get(spec)
                if record is not None:
                    payloads[i] = record.payload
                    self._count_cached(spec, key, record.elapsed_s)
                    cell_span.set(outcome="cached")
                    return True
                poison = self.store.read_poison(key)
                if poison is not None:
                    raise CellQuarantinedError(key, poison)
                attempt = self.store.claim_attempt(key, owner)
                if attempt is None:
                    self._quarantine(key)
                cell_span.set(attempt=attempt)
                stall = False
                if self._chaos is not None:
                    try:
                        self._chaos.maybe_kill(key, attempt, hard=self.hard_kill)
                    except WorkerKilled:
                        skip_release = True  # a killed worker releases nothing
                        raise
                    stall = self._chaos.stall_heartbeat(key, attempt)
                try:
                    with trace_span(
                        self._tracer,
                        "cell.compute",
                        key,
                        cell_kind=spec.kind,
                        benchmark=spec.benchmark,
                        attempt=attempt,
                        worker=owner,
                    ):
                        with self.heartbeat.guard(key, stall=stall):
                            t0 = time.perf_counter()
                            if self._chaos is not None:
                                self._chaos.slow_cell(key, attempt)
                                if self._chaos.cell_fails(key, attempt):
                                    raise ChaosInjectedCellError(
                                        f"injected failure at cell {key[:12]} "
                                        f"attempt {attempt}"
                                    )
                            payload = run_cell(spec)
                            elapsed = time.perf_counter() - t0
                    if key in self.heartbeat.lost:
                        self.cells_duplicated += 1
                        metrics_inc("repro_cells_duplicated_total")
                    with trace_span(self._tracer, "cell.put", key, worker=owner):
                        retry_call(
                            lambda: self.store.put(spec, payload, elapsed_s=elapsed),
                            policy=RetryPolicy(
                                max_attempts=4, base_delay_s=0.01, max_delay_s=0.1
                            ),
                            retryable=(OSError,),
                            describe=f"store put {key[:12]}",
                        )
                except WorkerKilled:
                    skip_release = True
                    raise
                except Exception as exc:
                    message = "".join(
                        traceback.format_exception_only(type(exc), exc)
                    ).strip()
                    self.store.record_attempt_failure(key, attempt, message)
                    self.cells_retried += 1
                    metrics_inc("repro_cell_retries_total")
                    cell_span.set(outcome="retry")
                    if self._tracer is not None:
                        self._tracer.mark(
                            "cell.retry", key, attempt=attempt, worker=owner
                        )
                    if self.emit is not None:
                        self.emit(
                            {
                                "type": "retry",
                                "key": key,
                                "attempt": attempt,
                                "error": message,
                                "t": time.time(),
                            }
                        )
                    if attempt + 1 >= settings.get("REPRO_CELL_ATTEMPTS"):
                        self._quarantine(key)
                    return False  # back to pending; the next claim takes attempt+1
                self.store.clear_attempts(key)
                payloads[i] = payload
                self.cells_computed += 1
                metrics_inc("repro_cells_computed_total")
                metrics_observe("repro_cell_compute_seconds", elapsed)
                cell_span.set(outcome="computed")
                self._emit_cell(spec, key, cached=False, elapsed_s=elapsed)
                return True
            finally:
                if not skip_release:
                    self.leases.release(key)

    def _quarantine(self, key: str) -> None:
        """Poison a cell whose attempt budget is spent; always raises.

        The tombstone write is single-winner; a loser adopts the winner's
        document so every drain reports the same exception chain.
        """
        attempts = self.store.attempts(key)
        doc = {
            "attempts": len(attempts),
            "errors": [
                {
                    "attempt": a.get("attempt"),
                    "owner": a.get("owner"),
                    "error": a.get("error", "worker died mid-attempt"),
                }
                for a in attempts
            ],
        }
        if not self.store.write_poison(key, doc):
            doc = self.store.read_poison(key) or doc
        metrics_inc("repro_cells_quarantined_total")
        if self.emit is not None:
            self.emit(
                {
                    "type": "quarantine",
                    "key": key,
                    "attempts": doc.get("attempts"),
                    "errors": doc.get("errors", []),
                    "t": time.time(),
                }
            )
        raise CellQuarantinedError(key, doc)

    def _count_cached(
        self, spec: ExperimentSpec, key: str, elapsed_s: Optional[float] = None
    ) -> None:
        """Account one cache hit (computed here earlier, elsewhere, or ever).

        ``elapsed_s`` is the *original* compute cost carried by the store
        record, so job status can report total compute seconds even when
        every cell of a re-run is warm.
        """
        self.cells_cached += 1
        metrics_inc("repro_cells_cached_total")
        self._emit_cell(spec, key, cached=True, elapsed_s=elapsed_s)

    def _emit_cell(
        self,
        spec: ExperimentSpec,
        key: str,
        cached: bool,
        elapsed_s: Optional[float] = None,
    ) -> None:
        """Report one finished cell to the event sink, if any."""
        if self.emit is None:
            return
        event = {
            "type": "cell",
            "key": key,
            "kind": spec.kind,
            "benchmark": spec.benchmark,
            "cached": cached,
            "t": time.time(),
        }
        if elapsed_s is not None:
            event["elapsed_s"] = round(elapsed_s, 6)
        self.emit(event)


class WakeSignal:
    """An in-process doorbell for idle workers: a generation counter.

    :meth:`notify` bumps the generation; :meth:`wait` blocks until the
    generation differs from the one the caller last saw, or the timeout
    passes.  Because a worker reads the generation *before* it scans the
    queue, a notification that lands while it is still draining is not lost:
    its next :meth:`wait` returns at once and it scans again.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._generation = 0

    @property
    def generation(self) -> int:
        """The number of notifications so far."""
        with self._cond:
            return self._generation

    def notify(self) -> None:
        """Wake every waiter (a job was submitted, or shutdown began)."""
        with self._cond:
            self._generation += 1
            self._cond.notify_all()

    def wait(self, seen: int, timeout: float) -> None:
        """Block until the generation moves past ``seen`` or ``timeout`` passes."""
        with self._cond:
            self._cond.wait_for(lambda: self._generation != seen, timeout)


class _LivenessWriter(threading.Thread):
    """A daemon thread republishing one worker's liveness file.

    The health endpoint reads these files to report worker liveness; a file
    older than a few intervals means the worker is gone (the lease protocol
    already handles its cells, this is purely observability).
    """

    def __init__(self, worker: "SweepWorker", interval_s: float) -> None:
        super().__init__(name=f"liveness-{worker.owner}", daemon=True)
        self.worker = worker
        self.interval_s = interval_s
        # Not named _stop: threading.Thread uses a private method of that name.
        self._halt = threading.Event()

    def run(self) -> None:
        """Write the liveness file every interval until stopped."""
        while True:
            self.worker.write_liveness()
            if self._halt.wait(self.interval_s):
                return

    def stop(self) -> None:
        """Stop the thread and remove the liveness file (clean shutdown)."""
        self.halt()
        try:
            os.remove(self.worker.liveness_path)
        except OSError:
            pass

    def halt(self) -> None:
        """Stop the thread but *leave* the liveness file behind.

        The simulated-SIGKILL path: a worker killed by chaos must look
        exactly like one killed by the OS, and a real SIGKILL never unlinks
        the liveness file — that is what the gc staleness sweep is for.
        """
        self._halt.set()
        self.join(timeout=5.0)


class SweepWorker:
    """One queue-draining worker bound to a shared cache root."""

    def __init__(
        self,
        root: Optional[str] = None,
        owner: Optional[str] = None,
        ttl_s: Optional[float] = None,
        poll_interval_s: Optional[float] = None,
        liveness_interval_s: float = LIVENESS_INTERVAL_S,
        hard_kill: bool = False,
    ) -> None:
        self.owner = owner if owner is not None else default_owner_id()
        self.hard_kill = hard_kill
        self.store = ResultStore(root)
        self.jobs = JobStore(self.store.root)
        self.leases = LeaseStore(self.store.root, owner=self.owner, ttl_s=ttl_s)
        self.heartbeat = LeaseHeartbeat(self.leases)
        self.poll_interval_s = poll_interval_s
        self.liveness_interval_s = liveness_interval_s
        self.started_at = time.time()
        self.jobs_drained = 0
        self.jobs_failed = 0
        self.cells_computed = 0
        self.cells_cached = 0
        self._liveness: Optional[_LivenessWriter] = None

    # -- liveness --------------------------------------------------------------

    @property
    def liveness_path(self) -> str:
        """This worker's liveness file under ``serve/workers/``."""
        return os.path.join(self.store.root, WORKERS_SUBDIR, f"{self.owner}.json")

    def write_liveness(self) -> None:
        """Atomically republish the liveness document."""
        path = self.liveness_path
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = {
            "owner": self.owner,
            "pid": os.getpid(),
            "started_at": self.started_at,
            "updated_at": time.time(),
            "interval_s": self.liveness_interval_s,
            "jobs_drained": self.jobs_drained,
            "jobs_failed": self.jobs_failed,
            "cells_computed": self.cells_computed,
            "cells_cached": self.cells_cached,
        }
        tmp = path + f".tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True)
            os.replace(tmp, path)
        except OSError:  # pragma: no cover - liveness is best-effort
            pass
        # Piggyback the metrics snapshot on the liveness cadence so the
        # frontend's /metrics merge sees this worker's counters even when the
        # worker runs in a separate process (or on another machine).
        write_snapshot(self.store.root, self.owner)

    # -- draining --------------------------------------------------------------

    def drain_job(
        self, job: Dict[str, Any], stop: Optional[threading.Event] = None
    ) -> Dict[str, Any]:
        """Drain one job to completion (or failure); returns this drain's stats.

        Several workers may drain the same job concurrently — that is the
        sharding mechanism, not a conflict.  Whichever drain finishes first
        writes the done marker; every drain finishing at all implies every
        cell of the job is in the store.
        """
        job_id = job["id"]
        request = job["request"]
        engine = LeaseDrainEngine(
            store=self.store,
            leases=self.leases,
            heartbeat=self.heartbeat,
            emit=lambda e: self.jobs.append_event(job_id, {**e, "owner": self.owner}),
            plan=lambda keys: self.jobs.append_plan_event(job_id, keys, self.owner),
            fast=request.get("fast", True),
            poll_interval_s=self.poll_interval_s,
            stop=stop,
            hard_kill=self.hard_kill,
        )
        try:
            execute_request(request, engine)
        except Exception as exc:
            message = "".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip()
            quarantined = None
            if isinstance(exc, CellQuarantinedError):
                quarantined = [{"key": exc.key, **exc.poison}]
            self.jobs.append_event(
                job_id,
                {"type": "error", "owner": self.owner, "message": message, "t": time.time()},
            )
            self.jobs.mark_failed(job_id, self.owner, message, quarantined=quarantined)
            self.jobs_failed += 1
            raise
        summary = {
            "owner": self.owner,
            "cells_total": engine.cells_computed + engine.cells_cached,
            "cells_computed": engine.cells_computed,
            "cells_cached": engine.cells_cached,
            "cells_duplicated": engine.cells_duplicated,
            "cells_retried": engine.cells_retried,
        }
        self.jobs.mark_done(job_id, summary)
        self.jobs_drained += 1
        self.cells_computed += engine.cells_computed
        self.cells_cached += engine.cells_cached
        return summary

    def run_once(self, stop: Optional[threading.Event] = None) -> int:
        """Drain every currently pending job once; returns how many finished."""
        drained = 0
        for job in self.jobs.pending_jobs():
            if stop is not None and stop.is_set():
                break
            try:
                self.drain_job(job, stop=stop)
                drained += 1
            except Exception:
                # The job is marked failed (or the shutdown interrupted us);
                # move on so one poisoned job cannot wedge the queue.
                continue
        return drained

    def run_forever(
        self,
        stop: Optional[threading.Event] = None,
        poll_s: float = 0.5,
        idle_exit: bool = False,
        wake: Optional[WakeSignal] = None,
    ) -> None:
        """The worker main loop: heartbeats on, drain, sleep, repeat.

        ``idle_exit=True`` returns as soon as the queue has no pending jobs
        (used by tests and the CI smoke); otherwise the loop runs until
        ``stop`` is set.  With a ``wake`` signal the sleep ends early when it
        is notified (an in-process submission, or shutdown); ``poll_s`` stays
        the timeout, which is how jobs written by other processes are found.
        Every knob is read before the heartbeat and liveness threads start,
        so a bad value fails here (see :func:`repro.settings.check`).
        """
        settings.check()
        stop = stop if stop is not None else threading.Event()
        self.heartbeat.start()
        self._liveness = _LivenessWriter(self, self.liveness_interval_s)
        self._liveness.start()
        try:
            while not stop.is_set():
                seen = wake.generation if wake is not None else 0
                self.run_once(stop=stop)
                if idle_exit and not self.jobs.pending_jobs():
                    return
                if wake is None:
                    stop.wait(poll_s)
                else:
                    wake.wait(seen, poll_s)
        except WorkerKilled:
            # Simulated kill -9: no cleanup at all.  Leases stay on disk and
            # expire, the liveness file lingers until the gc staleness sweep,
            # and the supervisor (if any) sees the corpse and restarts us.
            if self._liveness is not None:
                self._liveness.halt()
                self._liveness = None
            self.heartbeat.stop()
            raise
        finally:
            self.heartbeat.stop()
            if self._liveness is not None:
                self._liveness.stop()
                self._liveness = None


class WorkerSupervisor:
    """Run N worker threads and restart the ones that die.

    Each *slot* owns one :class:`SweepWorker` thread.  A thread that exits
    with an exception — a chaos :class:`WorkerKilled`, or a genuine bug — is
    replaced with a **fresh** worker (new owner identity, new lease store)
    after an exponential backoff, up to a per-slot crash-loop cap
    (``max_restarts``, default :data:`DEFAULT_MAX_RESTARTS`); a slot over its
    cap is abandoned and counted in ``crash_looped`` so ``/health`` shows the
    degradation instead of the service silently running under-strength.  A
    thread that *returns* is simply finished (idle-exit), never restarted.

    Every worker sleeps on the supervisor's :class:`WakeSignal` between queue
    scans: :meth:`notify` (called by the HTTP frontend once a submission is
    on disk) and :meth:`stop` end that sleep at once, and ``poll_s`` bounds
    it for jobs that arrive from other processes.
    """

    def __init__(
        self,
        root: str,
        count: int,
        ttl_s: Optional[float] = None,
        poll_s: float = 0.2,
        max_restarts: Optional[int] = None,
        backoff_base_s: float = 0.25,
        backoff_max_s: float = 5.0,
    ) -> None:
        self.root = root
        self.count = int(count)
        self.ttl_s = ttl_s
        self.poll_s = float(poll_s)
        self.max_restarts = (
            int(max_restarts) if max_restarts is not None else DEFAULT_MAX_RESTARTS
        )
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_max_s = float(backoff_max_s)
        self.restarts = 0
        self._stop = threading.Event()
        self._wake = WakeSignal()
        self._lock = threading.Lock()
        self._slots: List[Dict[str, Any]] = []
        self._monitor: Optional[threading.Thread] = None

    @property
    def workers(self) -> List[SweepWorker]:
        """The currently installed worker of every slot."""
        with self._lock:
            return [slot["worker"] for slot in self._slots]

    def _spawn(self, slot: Dict[str, Any]) -> None:
        """Install a fresh worker + thread into a slot (caller holds no lock)."""
        worker = SweepWorker(self.root, ttl_s=self.ttl_s)
        crashed = threading.Event()

        def _run() -> None:
            try:
                worker.run_forever(stop=self._stop, poll_s=self.poll_s, wake=self._wake)
            except BaseException:  # noqa: BLE001 - a dead worker, whatever killed it
                crashed.set()

        thread = threading.Thread(
            target=_run, name=f"sweep-worker-{worker.owner}", daemon=True
        )
        with self._lock:
            slot["worker"] = worker
            slot["thread"] = thread
            slot["crashed"] = crashed
        thread.start()

    def start(self) -> None:
        """Start every slot plus the monitor thread (idempotent)."""
        if self._monitor is not None and self._monitor.is_alive():
            return
        self._stop.clear()
        if not self._slots:
            self._slots = [
                {"worker": None, "thread": None, "crashed": None,
                 "restarts": 0, "next_restart_at": 0.0, "gave_up": False}
                for _ in range(self.count)
            ]
        for slot in self._slots:
            self._spawn(slot)
        self._monitor = threading.Thread(
            target=self._watch, name="worker-supervisor", daemon=True
        )
        self._monitor.start()

    def notify(self) -> None:
        """Wake every idle worker to scan the queue now (a job was submitted)."""
        self._wake.notify()

    def stop(self) -> None:
        """Stop the monitor and every worker thread."""
        self._stop.set()
        self._wake.notify()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        for slot in list(self._slots):
            thread = slot.get("thread")
            if thread is not None:
                thread.join(timeout=5.0)

    def _watch(self) -> None:
        """Monitor loop: restart crashed slots with backoff, respect the cap."""
        while not self._stop.wait(0.1):
            now = time.monotonic()
            for slot in self._slots:
                thread = slot["thread"]
                crashed = slot["crashed"]
                if thread is None or thread.is_alive() or slot["gave_up"]:
                    continue
                if crashed is None or not crashed.is_set():
                    continue  # clean return (idle exit): nothing to revive
                if slot["next_restart_at"] == 0.0:
                    if slot["restarts"] >= self.max_restarts:
                        slot["gave_up"] = True
                        continue
                    delay = min(
                        self.backoff_max_s,
                        self.backoff_base_s * (2.0 ** slot["restarts"]),
                    )
                    slot["next_restart_at"] = now + delay
                    continue
                if now < slot["next_restart_at"]:
                    continue
                slot["next_restart_at"] = 0.0
                slot["restarts"] += 1
                self.restarts += 1
                metrics_inc("repro_worker_restarts_total")
                self._spawn(slot)

    def stats(self) -> Dict[str, int]:
        """Supervision counters for the health/stats endpoints."""
        with self._lock:
            alive = sum(
                1
                for slot in self._slots
                if slot["thread"] is not None and slot["thread"].is_alive()
            )
            crash_looped = sum(1 for slot in self._slots if slot["gave_up"])
        return {
            "alive": alive,
            "restarts": self.restarts,
            "crash_looped": crash_looped,
        }


def list_workers(
    root: Optional[str] = None, now: Optional[float] = None
) -> List[Dict[str, Any]]:
    """Every known worker's liveness document, annotated with ``alive``/``stale``.

    A worker is reported alive while its liveness file is younger than three
    republish intervals — the same "missed a few heartbeats" rule the lease
    TTL applies to cell claims.  A file older than three lease TTLs is
    ``stale``: its worker was SIGKILLed (or the host died) and never cleaned
    up after itself; ``ResultStore.gc`` removes such files.
    """
    store = ResultStore(root)
    workers_dir = os.path.join(store.root, WORKERS_SUBDIR)
    if now is None:
        now = time.time()
    stale_after_s = 3.0 * settings.get("REPRO_LEASE_TTL_S")
    rows: List[Dict[str, Any]] = []
    if not os.path.isdir(workers_dir):
        return rows
    for name in sorted(os.listdir(workers_dir)):
        if not name.endswith(".json") or ".tmp." in name:
            continue
        try:
            with open(os.path.join(workers_dir, name), "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            continue
        age = now - float(doc.get("updated_at", 0.0))
        interval = float(doc.get("interval_s", LIVENESS_INTERVAL_S))
        rows.append(
            {
                **doc,
                "age_s": round(age, 3),
                "alive": age < 3.0 * interval,
                "stale": age >= stale_after_s,
            }
        )
    return rows
