#!/usr/bin/env python3
"""Observability gate (CI): full tracing must observe everything, change nothing.

Against real in-process :class:`repro.serve.app.ReproServer` instances
(port 0, two worker threads, one throwaway cache root per phase) this script:

1. drains a small workload sweep **untraced** and captures its artifacts as
   the baseline;
2. re-drains the identical sweep under ``REPRO_TRACE=full`` — failing unless
   the artifacts are **byte-identical** to the baseline, the trace log parses,
   and every computed cell carries a complete claim → compute → put span
   chain (compute and put parented on the cell span, claim preceding it);
3. scrapes ``GET /metrics`` mid-phase — failing unless it returns Prometheus
   text carrying the cell counters the drain just incremented;
4. round-trips the trace through ``summarize`` and the Chrome trace-event
   export — failing unless the summary covers the cell sites and the exported
   document is structurally loadable (``traceEvents`` complete events with
   microsecond ``ts``/``dur`` and named process rows);
5. times a small ``repro run fig5`` cold run untraced vs ``REPRO_TRACE=light``
   and **prints** the overhead (informational: wall-clock noise on shared CI
   runners makes a hard gate flaky; the <2% budget is tracked by eye).

Exit status 0 means tracing is observation-only and complete. Runs in temp
directories; nothing is left behind.

Usage::

    python tools/check_obs_smoke.py [--scale 0.2] [--timeout 180]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import urllib.request

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.obs.report import export_trace_file, read_trace, summarize_trace  # noqa: E402
from repro.serve.app import ReproServer  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def smoke_request(scale: float) -> dict:
    """The sweep both phases drain: 2 multipliers x 2 fault rates, 4 cells."""
    return {
        "workloads": ["layered:depth=4,width=3,seed=7"],
        "policies": ["app_fit"],
        "multipliers": [10.0, 5.0],
        "fault_rates": [0.0, 0.01],
        "scale": scale,
    }


def _post(url: str, doc: dict) -> dict:
    """POST one JSON document, returning the parsed response."""
    request = urllib.request.Request(
        url, data=json.dumps(doc).encode(), headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request) as resp:
        return json.load(resp)


def _get(url: str) -> bytes:
    """GET one URL, returning the raw body."""
    with urllib.request.urlopen(url) as resp:
        return resp.read()


def _drain(base: str, doc: dict, timeout_s: float) -> dict:
    """Submit one job and poll it to a terminal state; returns the status."""
    job_id = _post(f"{base}/api/v1/jobs", doc)["job"]["id"]
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status = json.loads(_get(f"{base}/api/v1/jobs/{job_id}"))
        if status["state"] in ("done", "failed"):
            return status
        time.sleep(0.05)
    raise SystemExit(f"FAIL: job {job_id} not terminal within {timeout_s}s")


def _artifacts(base: str, job_id: str) -> dict:
    """All three artifact blobs of one finished job."""
    return {
        fmt: _get(f"{base}/api/v1/jobs/{job_id}/artifacts/{fmt}")
        for fmt in ("txt", "json", "csv")
    }


def _run_phase(doc: dict, timeout_s: float, traced: bool) -> dict:
    """One full drain in a fresh root; returns everything the gate inspects."""
    root = tempfile.mkdtemp(prefix="repro-obs-smoke-")
    server = ReproServer(root=root, host="127.0.0.1", port=0, workers=2, ttl_s=5.0)
    server.start()
    try:
        status = _drain(server.url, doc, timeout_s)
        if status["state"] != "done":
            raise SystemExit(
                f"FAIL: {'traced' if traced else 'baseline'} drain ended "
                f"{status['state']}: {status.get('error')}"
            )
        blobs = _artifacts(server.url, status["id"])
        metrics_text = _get(f"{server.url}/metrics").decode("utf-8")
    finally:
        server.stop()
    return {"root": root, "status": status, "blobs": blobs, "metrics": metrics_text}


def _check_span_chains(records: list, failures: list) -> int:
    """Every computed cell must carry a claim → compute → put chain."""
    cells = [
        r for r in records
        if r.get("site") == "cell" and r.get("outcome") == "computed"
    ]
    by_parent: dict = {}
    for rec in records:
        if rec.get("parent"):
            by_parent.setdefault(rec["parent"], []).append(rec)
    claims = [r for r in records if r.get("site") == "cell.claim"]
    for cell in cells:
        child_sites = {r.get("site") for r in by_parent.get(cell.get("id"), [])}
        if not {"cell.compute", "cell.put"} <= child_sites:
            failures.append(
                f"cell {cell.get('key', '?')[:12]} missing compute/put children "
                f"(has {sorted(child_sites)})"
            )
        if not any(
            c.get("key") == cell.get("key") and c.get("t", 0) <= cell.get("t", 0)
            for c in claims
        ):
            failures.append(f"cell {cell.get('key', '?')[:12]} has no preceding claim")
    return len(cells)


def _check_chrome_export(root: str, failures: list) -> int:
    """Export the trace and structurally validate the Chrome-trace document."""
    out_path = os.path.join(root, "obs", "trace_chrome.json")
    export_trace_file(root, out_path)
    with open(out_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        failures.append("export: traceEvents missing or empty")
        return 0
    complete = [e for e in events if e.get("ph") == "X"]
    named_rows = [
        e for e in events if e.get("ph") == "M" and e.get("name") == "process_name"
    ]
    if not complete:
        failures.append("export: no complete ('X') span events")
    for event in complete:
        if not {"name", "ts", "dur", "pid", "tid"} <= set(event):
            failures.append(f"export: malformed X event {event}")
            break
    if not named_rows:
        failures.append("export: no process_name metadata rows (worker lanes)")
    return len(events)


def _time_cli_run(scale: float, trace_mode: str) -> float:
    """One cold ``repro run fig5`` in a throwaway root; returns elapsed seconds."""
    workdir = tempfile.mkdtemp(prefix="repro-obs-timing-")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    env.pop("REPRO_TRACE", None)
    if trace_mode:
        env["REPRO_TRACE"] = trace_mode
    try:
        t0 = time.perf_counter()
        subprocess.run(
            [
                sys.executable, "-m", "repro", "run", "fig5",
                "--scale", str(scale),
                "--cache-dir", os.path.join(workdir, "cache"),
                "--out", os.path.join(workdir, "out"),
                "-q",
            ],
            check=True, env=env, cwd=REPO_ROOT,
        )
        return time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    """Run the observability smoke; exit non-zero on any violated invariant."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.2)
    parser.add_argument("--timeout", type=float, default=180.0, help="per-drain cap")
    parser.add_argument(
        "--skip-timing", action="store_true",
        help="skip the informational light-mode overhead measurement",
    )
    args = parser.parse_args(argv)
    doc = smoke_request(args.scale)
    failures: list = []

    os.environ.pop("REPRO_TRACE", None)
    baseline = _run_phase(doc, args.timeout, traced=False)
    if read_trace(baseline["root"]):
        failures.append("trace records written without REPRO_TRACE")

    os.environ["REPRO_TRACE"] = "full"
    try:
        traced = _run_phase(doc, args.timeout, traced=True)
    finally:
        os.environ.pop("REPRO_TRACE", None)

    for fmt, blob in baseline["blobs"].items():
        if traced["blobs"].get(fmt) != blob:
            failures.append(f"{fmt} artifact differs between traced and untraced")

    if "repro_cells_computed_total" not in traced["metrics"]:
        failures.append("/metrics scrape missing repro_cells_computed_total")
    if "# TYPE repro_span_duration_seconds histogram" not in traced["metrics"]:
        failures.append("/metrics scrape missing the span-duration histogram")

    records = read_trace(traced["root"])
    if not records:
        failures.append("traced drain produced no parseable trace records")
    computed_cells = _check_span_chains(records, failures)
    if computed_cells != traced["status"]["cells"]["computed"]:
        failures.append(
            f"trace covers {computed_cells} computed cells, job reports "
            f"{traced['status']['cells']['computed']}"
        )

    summary = summarize_trace(records)
    for site in ("cell", "cell.compute", "cell.put"):
        if site not in summary["sites"]:
            failures.append(f"summarize: site {site!r} missing from the trace")
    event_count = _check_chrome_export(traced["root"], failures)

    shutil.rmtree(baseline["root"], ignore_errors=True)
    shutil.rmtree(traced["root"], ignore_errors=True)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1

    if not args.skip_timing:
        plain_s = _time_cli_run(args.scale, "")
        light_s = _time_cli_run(args.scale, "light")
        overhead = (light_s - plain_s) / plain_s * 100.0
        print(
            f"light-mode overhead (informational): untraced {plain_s:.2f}s, "
            f"light {light_s:.2f}s ({overhead:+.1f}%; budget <2%, noisy on CI)"
        )

    print(
        f"obs smoke OK: {computed_cells} computed cells fully chained "
        f"(claim -> compute -> put), artifacts byte-identical to untraced, "
        f"/metrics scraped, export round-tripped {event_count} events"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
