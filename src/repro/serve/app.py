"""The sweep service HTTP layer: submit grids, watch progress, fetch artifacts.

A deliberately small stdlib server (``http.server.ThreadingHTTPServer`` —
the repo adds no dependencies) over the job queue in
:mod:`repro.serve.jobs`.  The server itself never computes cells: submission
writes a job document (and wakes the embedded workers), progress is derived
from the shared store and the events journal, and artifacts are composed
read-only from the warm cache.
All computation happens in workers — embedded threads
(``ReproServer(workers=N)``), separate ``repro serve --worker`` processes,
or both — coordinating purely through the shared cache root.

API (all JSON unless noted)::

    POST /api/v1/jobs                    submit a request -> 202 {job}
    GET  /api/v1/jobs                    all job statuses, oldest first
    GET  /api/v1/jobs/<id>               one job's derived status
    GET  /api/v1/jobs/<id>/events?offset=N   incremental journal tail
    GET  /api/v1/jobs/<id>/artifacts/<fmt>   txt | json | csv (409 until done)
    GET  /api/v1/health                  liveness + worker heartbeats
    GET  /api/v1/stats                   store/queue/lease counters
    GET  /metrics                        Prometheus text exposition (not JSON)

Errors are ``{"error": ...}`` with conventional codes: 400 invalid request,
404 unknown job/route/format, 409 artifacts requested before the job's cells
are all computed.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro import settings
from repro.analysis.store import ResultStore
from repro.obs.metrics import PROM_CONTENT_TYPE, render_merged
from repro.obs.metrics import inc as metrics_inc
from repro.obs.trace import active_tracer, trace_span
from repro.serve.chaos import active_chaos
from repro.serve.jobs import JobIncompleteError, JobStore, JobValidationError, compose_artifacts
from repro.serve.workers import SweepWorker, WorkerSupervisor, list_workers
from repro.util.retry import RetryPolicy, retry_call

#: Artifact formats the service renders, with their content types.
ARTIFACT_TYPES: Dict[str, str] = {
    "txt": "text/plain; charset=utf-8",
    "json": "application/json; charset=utf-8",
    "csv": "text/csv; charset=utf-8",
}

#: Maximum accepted request body (a request document is tiny).
_MAX_BODY_BYTES = 1 << 20


def default_bind(host: Optional[str] = None, port: Optional[int] = None) -> Tuple[str, int]:
    """Resolve the bind address: explicit args > ``REPRO_SERVE_BIND`` > default."""
    env_host, env_port = settings.get("REPRO_SERVE_BIND")
    return (host if host is not None else env_host,
            port if port is not None else env_port)


class _Handler(BaseHTTPRequestHandler):
    """Route one HTTP request against the server's job store."""

    # Set by ReproServer on the server object; typed here for clarity.
    server: "ReproServer"

    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Silence per-request stderr logging (the service is test-driven)."""

    # -- plumbing --------------------------------------------------------------

    def _send(self, code: int, body: bytes, content_type: str) -> None:
        """Write one complete response."""
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _json(self, code: int, doc: Any) -> None:
        """Write one JSON response."""
        body = (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
        self._send(code, body, "application/json; charset=utf-8")

    def _error(self, code: int, message: str) -> None:
        """Write one JSON error response."""
        self._json(code, {"error": message})

    def _read_body(self) -> Optional[Dict[str, Any]]:
        """Parse the request body as a JSON object (``None`` -> 400 sent)."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = 0
        if length <= 0 or length > _MAX_BODY_BYTES:
            self._error(400, "request body required (a JSON object)")
            return None
        raw = self.rfile.read(length)
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._error(400, "request body is not valid JSON")
            return None
        if not isinstance(doc, dict):
            self._error(400, "request body must be a JSON object")
            return None
        return doc

    def _chaos_preempt(self) -> bool:
        """Maybe sabotage this request (injected frontend failure).

        Alternates by draw ordinal between a 503 (the retryable-status path
        of the client's backoff) and an abrupt connection close (the
        connection-reset path).  Both are exactly what the
        ``util/retry``-routed CLI client must absorb.
        """
        chaos = getattr(self.server, "chaos", None)
        if chaos is None:
            return False
        n = chaos.http_failure(urlparse(self.path).path)
        if n is None:
            return False
        if n % 2 == 0:
            self._error(503, "injected server error (chaos)")
        else:
            self.close_connection = True
            try:
                self.connection.close()
            except OSError:
                pass
        return True

    # -- methods ---------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        """POST entry: count the request, maybe trace it, then route."""
        metrics_inc("repro_http_requests_total", method="POST")
        if self._chaos_preempt():
            return
        with trace_span(
            getattr(self.server, "tracer", None),
            "http.request",
            method="POST",
            path=urlparse(self.path).path,
        ):
            self._route_post()

    def _route_post(self) -> None:
        """POST router: job submission only."""
        parts = [p for p in urlparse(self.path).path.split("/") if p]
        if parts == ["api", "v1", "jobs"]:
            doc = self._read_body()
            if doc is None:
                return
            try:
                job = self.server.jobs.submit(doc)
            except JobValidationError as exc:
                self._error(400, str(exc))
                return
            self.server.wake_workers()
            self._json(202, {"job": job, "status_url": f"/api/v1/jobs/{job['id']}"})
            return
        self._error(404, f"no such route: POST {self.path}")

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        """GET entry: count the request, maybe trace it, then route."""
        metrics_inc("repro_http_requests_total", method="GET")
        if self._chaos_preempt():
            return
        with trace_span(
            getattr(self.server, "tracer", None),
            "http.request",
            method="GET",
            path=urlparse(self.path).path,
        ):
            self._route_get()

    def _route_get(self) -> None:
        """GET router: statuses, events, artifacts, health, stats, metrics."""
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if parts == ["metrics"]:
            # Prometheus convention: the scrape endpoint lives at the root,
            # outside the JSON API namespace.
            if not settings.get("REPRO_METRICS"):
                self._error(404, "metrics exposition disabled (REPRO_METRICS=off)")
                return
            body = self.server.metrics_text().encode("utf-8")
            self._send(200, body, PROM_CONTENT_TYPE)
            return
        if parts[:2] != ["api", "v1"]:
            self._error(404, f"no such route: GET {self.path}")
            return
        rest = parts[2:]
        if rest == ["health"]:
            self._json(200, self.server.health())
            return
        if rest == ["stats"]:
            self._json(200, self.server.stats())
            return
        if rest == ["jobs"]:
            statuses = [
                self.server.jobs.status(job["id"]) for job in self.server.jobs.list_jobs()
            ]
            self._json(200, {"jobs": [s for s in statuses if s is not None]})
            return
        if len(rest) >= 2 and rest[0] == "jobs":
            job_id = rest[1]
            status = self.server.jobs.status(job_id)
            if status is None:
                self._error(404, f"unknown job: {job_id}")
                return
            if len(rest) == 2:
                self._json(200, status)
                return
            if rest[2:] == ["events"]:
                query = parse_qs(url.query)
                try:
                    offset = int(query.get("offset", ["0"])[0])
                except ValueError:
                    offset = 0
                events, next_offset = self.server.jobs.events(job_id, offset=offset)
                self._json(
                    200,
                    {"events": events, "next_offset": next_offset, "state": status["state"]},
                )
                return
            if len(rest) == 4 and rest[2] == "artifacts":
                self._artifact(status, rest[3])
                return
        self._error(404, f"no such route: GET {self.path}")

    def _artifact(self, status: Dict[str, Any], fmt: str) -> None:
        """Serve one artifact of a job, composed read-only from the store."""
        content_type = ARTIFACT_TYPES.get(fmt)
        if content_type is None:
            self._error(404, f"unknown artifact format {fmt!r}; known: txt, json, csv")
            return
        if status["state"] == "failed":
            self._error(409, f"job failed: {status.get('error')}")
            return
        try:
            texts = self.server.compose(status["request"])
        except JobIncompleteError as exc:
            self._error(409, f"job not finished: {exc}")
            return
        self._send(200, texts[fmt].encode("utf-8"), content_type)


class _ServeHTTPServer(ThreadingHTTPServer):
    """A threading server that doesn't traceback on torn connections.

    Chaos-injected connection resets (and ordinary client hangups) surface
    in the handler thread as ``ConnectionError``/``BrokenPipeError``; they
    are expected, not bugs, so they must not spray stack traces over the
    CLI's stderr.  Anything else still reports normally.
    """

    daemon_threads = True

    def handle_error(self, request: Any, client_address: Any) -> None:
        import sys

        exc = sys.exc_info()[1]
        if isinstance(exc, (ConnectionError, BrokenPipeError, OSError)):
            return
        super().handle_error(request, client_address)  # pragma: no cover


class ReproServer:
    """The sweep service: a threading HTTP server plus optional local workers.

    ``workers=N`` starts N :class:`~repro.serve.workers.SweepWorker` threads
    draining the same cache root in-process — supervised: a worker that dies
    (a bug, or a chaos-injected kill) is restarted with backoff up to the
    crash-loop cap — the small-deployment mode where one ``repro serve``
    command is the whole system.  With ``workers=0`` the server is a pure
    frontend and every cell is computed by external ``repro serve --worker``
    processes (any machine sharing the cache root).
    """

    def __init__(
        self,
        root: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        workers: int = 0,
        ttl_s: Optional[float] = None,
        max_restarts: Optional[int] = None,
    ) -> None:
        self.store = ResultStore(root)
        self.jobs = JobStore(self.store.root)
        self.ttl_s = float(ttl_s) if ttl_s is not None else settings.get("REPRO_LEASE_TTL_S")
        bind_host, bind_port = default_bind(host, port)
        self.httpd = _ServeHTTPServer((bind_host, bind_port), _Handler)
        # The handler reaches everything through self.server; graft ourselves on.
        self.httpd.jobs = self.jobs  # type: ignore[attr-defined]
        self.httpd.health = self.health  # type: ignore[attr-defined]
        self.httpd.stats = self.stats  # type: ignore[attr-defined]
        self.httpd.compose = self.compose  # type: ignore[attr-defined]
        self.httpd.chaos = active_chaos(self.store.root)  # type: ignore[attr-defined]
        self.httpd.tracer = active_tracer(self.store.root)  # type: ignore[attr-defined]
        self.httpd.metrics_text = self.metrics_text  # type: ignore[attr-defined]
        self.httpd.wake_workers = self.wake_workers  # type: ignore[attr-defined]
        self.started_at = time.time()
        self._thread: Optional[threading.Thread] = None
        self.supervisor: Optional[WorkerSupervisor] = (
            WorkerSupervisor(
                self.store.root, workers, ttl_s=self.ttl_s, max_restarts=max_restarts
            )
            if workers > 0
            else None
        )
        self._compose_lock = threading.Lock()
        self._compose_cache: Dict[str, Dict[str, str]] = {}

    @property
    def workers(self) -> List[SweepWorker]:
        """The embedded workers currently installed (restarts replace them)."""
        return self.supervisor.workers if self.supervisor is not None else []

    def wake_workers(self) -> None:
        """Have the embedded workers scan the queue now (a job was published)."""
        if self.supervisor is not None:
            self.supervisor.notify()

    # -- endpoint payloads -----------------------------------------------------

    def compose(self, request: Dict[str, Any]) -> Dict[str, str]:
        """Artifact texts of one (finished) request, memoised per request body.

        The memo key is the canonical request JSON: identical requests —
        including warm resubmissions, which by design share every cell —
        serve the same composed bytes without re-walking the store.
        """
        memo_key = json.dumps(request, sort_keys=True)
        with self._compose_lock:
            cached = self._compose_cache.get(memo_key)
        if cached is not None:
            return cached
        # One quick retry absorbs transient read blips (and chaos-delayed
        # renames) without turning a genuinely unfinished job into a wait:
        # JobIncompleteError still reaches the 409 path after the second try.
        texts = retry_call(
            lambda: compose_artifacts(request, self.store.root),
            policy=RetryPolicy(max_attempts=2, base_delay_s=0.05, max_delay_s=0.1),
            retryable=(JobIncompleteError, OSError),
            describe="artifact composition",
        )
        with self._compose_lock:
            self._compose_cache[memo_key] = texts
        return texts

    def metrics_text(self) -> str:
        """The Prometheus exposition: this process's registry + worker snapshots.

        The uptime gauge is refreshed at scrape time; external workers'
        counters arrive via the snapshot files they publish on the liveness
        cadence (snapshots from this pid are skipped — embedded worker
        threads already share the process registry).
        """
        from repro.obs.metrics import registry

        registry().gauge("repro_uptime_seconds").set(time.time() - self.started_at)
        return render_merged(self.store.root)

    def _config_doc(self) -> Dict[str, Any]:
        """The resolved runtime configuration an operator needs at a glance."""
        import repro

        chaos = getattr(self.httpd, "chaos", None)
        return {
            "version": repro.__version__,
            "uptime_s": round(time.time() - self.started_at, 3),
            "chaos_profile": chaos.profile.canonical if chaos is not None else None,
            "trace_mode": settings.get("REPRO_TRACE"),
        }

    def health(self) -> Dict[str, Any]:
        """The health document: queue depth, heartbeats, and supervision."""
        pending = self.jobs.pending_jobs()
        workers = list_workers(self.store.root)
        doc = {
            "ok": True,
            "queue_depth": len(pending),
            "workers": workers,
            "workers_alive": sum(1 for w in workers if w.get("alive")),
            "workers_stale": sum(1 for w in workers if w.get("stale")),
            "lease_ttl_s": self.ttl_s,
            **self._config_doc(),
        }
        if self.supervisor is not None:
            doc["supervisor"] = self.supervisor.stats()
        return doc

    def stats(self) -> Dict[str, Any]:
        """The stats document: store counters, lease counts, job states."""
        store_stats = self.store.stats()
        jobs = self.jobs.list_jobs()
        states: Dict[str, int] = {"pending": 0, "running": 0, "done": 0, "failed": 0}
        computed = cached = retries = 0
        quarantined_cells = 0
        for job in jobs:
            status = self.jobs.status(job["id"])
            if status is None:
                continue
            states[status["state"]] = states.get(status["state"], 0) + 1
            computed += status["cells"]["computed"]
            cached += status["cells"]["cached"]
            retries += status["cells"].get("retries", 0)
            quarantined_cells += len(status.get("quarantined", ()))
        total_cells = computed + cached
        doc = {
            "store": store_stats,
            "jobs": {"total": len(jobs), **states},
            "cells": {
                "computed": computed,
                "cached": cached,
                "cache_hit_rate": (cached / total_cells) if total_cells else None,
                "retries": retries,
                "quarantined": quarantined_cells,
            },
            "reclaims": sum(w.leases.reclaims for w in self.workers),
            "config": self._config_doc(),
        }
        if self.supervisor is not None:
            doc["supervisor"] = self.supervisor.stats()
        chaos = getattr(self.httpd, "chaos", None)
        if chaos is not None:
            doc["chaos"] = {
                "profile": chaos.profile.canonical,
                "injected": dict(chaos.injected),
            }
        return doc

    # -- lifecycle -------------------------------------------------------------

    @property
    def url(self) -> str:
        """The service base URL (the actually bound port, so port 0 works)."""
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ReproServer":
        """Serve in a background thread and start the supervised workers.

        Every knob is read first (:func:`repro.settings.check`): a bad value
        raises here, before any thread starts, instead of killing a worker's
        background thread later.
        """
        settings.check()
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        if self.supervisor is not None:
            self.supervisor.start()
        return self

    def stop(self) -> None:
        """Shut down: stop workers, then the HTTP loop (idempotent).

        Also closes the socket of a server whose :meth:`start` never ran or
        raised (``shutdown`` would wait for a loop that never started).
        """
        if self.supervisor is not None:
            self.supervisor.stop()
        if self._thread is not None:
            self.httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self.httpd.server_close()

    def serve_forever(self) -> None:
        """Foreground mode for the CLI: start, then block until interrupted."""
        self.start()
        try:
            while True:
                if self._thread is not None:
                    self._thread.join(timeout=1.0)
        except KeyboardInterrupt:  # pragma: no cover - interactive path
            pass
        finally:
            self.stop()
