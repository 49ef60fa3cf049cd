#!/usr/bin/env python3
"""Chaos soak gate (CI): seeded faults over a 2-worker drain, replay-checked.

Against real in-process :class:`repro.serve.app.ReproServer` instances
(port 0, two supervised worker threads, one throwaway cache root per phase)
this script:

1. drains a small workload sweep **fault-free** and captures its artifacts
   as the baseline;
2. re-drains the identical sweep ``--repeats`` times under a seeded
   ``REPRO_CHAOS`` profile mixing worker kills, torn lease writes, injected
   EIO on store writes, stalled heartbeats, slow cells, and injected cell
   failures — failing unless every soak completes, serves artifacts
   **byte-identical** to the baseline, keeps duplicate work bounded by the
   injected stall count, and actually injected faults (a profile that
   injects nothing is a misconfigured gate);
3. fails unless every soak's injected-fault log — the order-free
   ``(site, key, n)`` multiset — is identical across repeats: the same seed
   must reproduce the same fault schedule, or chaos runs are not replayable.

Exit status 0 means the service survives its chaos profile deterministically.
Runs in temp directories; nothing is left behind.

Usage::

    python tools/check_chaos_smoke.py [--scale 0.2] [--repeats 2] \\
        [--profile "off:seed=7,p_kill=0.15,..."]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
import urllib.request

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.serve.app import ReproServer  # noqa: E402
from repro.serve.chaos import injected_multiset, parse_chaos  # noqa: E402

#: The default soak profile: every fault family the harness can absorb, at
#: rates a 4-cell drain survives, under one fixed seed.  ``max_kills`` stays
#: unlimited so the kill schedule is purely keyed (a binding budget would
#: make *which* cell gets the kill race-dependent and break replay).
DEFAULT_PROFILE = (
    "off:seed=5,p_kill=0.15,p_torn_lease=0.3,p_io=0.25,p_stall=0.25,"
    "p_slow=0.25,slow_ms=20.0,p_rename_delay=0.25,rename_delay_ms=5.0,"
    "p_cell_fail=0.2"
)


def smoke_request(scale: float) -> dict:
    """The sweep every phase drains: 2 multipliers x 2 fault rates, 4 cells."""
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


def _get(url: str):
    """GET one URL, returning parsed JSON (or raw bytes for artifacts)."""
    with urllib.request.urlopen(url) as resp:
        raw = resp.read()
    try:
        return json.loads(raw)
    except ValueError:
        return raw


def _drain(base: str, doc: dict, timeout_s: float) -> dict:
    """Submit one job and poll it to a terminal state; returns the status."""
    job_id = _post(f"{base}/api/v1/jobs", doc)["job"]["id"]
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status = _get(f"{base}/api/v1/jobs/{job_id}")
        if status["state"] in ("done", "failed"):
            return status
        time.sleep(0.05)
    raise SystemExit(
        f"FAIL: job {job_id} did not reach a terminal state within {timeout_s}s "
        "(the no-hang guarantee is broken)"
    )


def _artifacts(base: str, job_id: str) -> dict:
    """All three artifact blobs of one finished job."""
    return {
        fmt: _get(f"{base}/api/v1/jobs/{job_id}/artifacts/{fmt}")
        for fmt in ("txt", "json", "csv")
    }


def _run_phase(doc: dict, ttl_s: float, timeout_s: float) -> dict:
    """One full drain in a fresh root; returns everything the gate inspects."""
    root = tempfile.mkdtemp(prefix="repro-chaos-smoke-")
    server = ReproServer(root=root, host="127.0.0.1", port=0, workers=2, ttl_s=ttl_s)
    server.start()
    try:
        status = _drain(server.url, doc, timeout_s)
        blobs = (
            _artifacts(server.url, status["id"]) if status["state"] == "done" else {}
        )
        events = _get(f"{server.url}/api/v1/jobs/{status['id']}/events")["events"]
        stats = _get(f"{server.url}/api/v1/stats")
    finally:
        server.stop()
    computed_keys = [
        e["key"] for e in events if e.get("type") == "cell" and not e.get("cached")
    ]
    result = {
        "status": status,
        "blobs": blobs,
        "duplicates": len(computed_keys) - len(set(computed_keys)),
        "injected": injected_multiset(root),
        "supervisor": stats.get("supervisor") or {},
    }
    shutil.rmtree(root, ignore_errors=True)
    return result


def main(argv=None) -> int:
    """Run the chaos soak; exit non-zero on the first violated invariant."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.2)
    parser.add_argument("--repeats", type=int, default=2, help="chaos soak runs")
    parser.add_argument("--profile", default=DEFAULT_PROFILE)
    parser.add_argument("--ttl", type=float, default=5.0, help="lease TTL seconds")
    parser.add_argument("--timeout", type=float, default=180.0, help="per-drain cap")
    args = parser.parse_args(argv)
    profile = parse_chaos(args.profile)  # fail fast on a malformed gate config
    doc = smoke_request(args.scale)
    failures = []

    os.environ.pop("REPRO_CHAOS", None)
    baseline = _run_phase(doc, args.ttl, args.timeout)
    if baseline["status"]["state"] != "done":
        raise SystemExit(
            f"FAIL: fault-free baseline ended {baseline['status']['state']}: "
            f"{baseline['status'].get('error')}"
        )
    if baseline["injected"]:
        failures.append(f"faults injected without REPRO_CHAOS: {baseline['injected']}")

    soaks = []
    os.environ["REPRO_CHAOS"] = profile.canonical
    try:
        for i in range(max(1, args.repeats)):
            soak = _run_phase(doc, args.ttl, args.timeout)
            soaks.append(soak)
            status = soak["status"]
            label = f"soak {i + 1}/{args.repeats}"
            if status["state"] != "done":
                failures.append(
                    f"{label} ended {status['state']}: {status.get('error')} "
                    f"(quarantined: {status.get('quarantined')})"
                )
                continue
            for fmt, blob in baseline["blobs"].items():
                if soak["blobs"].get(fmt) != blob:
                    failures.append(f"{label}: {fmt} artifact differs from baseline")
            stalls = sum(1 for site, _, _ in soak["injected"] if site == "stall")
            if soak["duplicates"] > stalls:
                failures.append(
                    f"{label}: {soak['duplicates']} duplicate cell computes "
                    f"exceed the {stalls} injected stalls"
                )
            kills = sum(1 for site, _, _ in soak["injected"] if site == "kill")
            if soak["supervisor"].get("restarts", 0) < kills:
                failures.append(
                    f"{label}: {kills} injected kills but only "
                    f"{soak['supervisor']} supervisor restarts"
                )
    finally:
        os.environ.pop("REPRO_CHAOS", None)

    sites = {site for soak in soaks for site, _, _ in soak["injected"]}
    if not sites:
        failures.append(f"profile {profile.canonical!r} injected nothing")
    for i, soak in enumerate(soaks[1:], start=2):
        if soak["injected"] != soaks[0]["injected"]:
            failures.append(
                f"soak {i} injected a different fault schedule than soak 1 — "
                "the seed does not replay"
            )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        f"chaos smoke OK: {len(soaks)} soak(s) of "
        f"{baseline['status']['cells']['total']} cells survived "
        f"{len(soaks[0]['injected'])} injected faults across {sorted(sites)}; "
        "artifacts byte-identical to fault-free, schedule replayed exactly"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
