"""The sweep service end to end: submit → poll → fetch over a real server.

An in-process :class:`~repro.serve.app.ReproServer` (port 0, two embedded
worker threads) backed by a per-test cache root.  Pins:

* the submit/poll/artifacts happy path for a registry target;
* warm resubmission computes **zero** cells and serves byte-identical
  artifacts;
* health/stats report sane queue/worker/cache numbers;
* the error contract: 400 invalid submissions, 404 unknown jobs/routes,
  409 artifact requests before the job's cells exist;
* the events journal is incrementally consumable via ``?offset=``;
* a submission wakes idle embedded workers, and so does shutdown.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.serve.app import ReproServer

#: A tiny-but-real job: 2 multipliers x 2 fault rates over one workload.
SWEEP_REQUEST = {
    "workloads": ["layered:depth=3,width=2,seed=1"],
    "policies": ["app_fit"],
    "multipliers": [10.0, 5.0],
    "fault_rates": [0.0, 0.01],
    "scale": 0.2,
}


@pytest.fixture
def server(tmp_path):
    """A running service on a free port with two local workers."""
    srv = ReproServer(
        root=str(tmp_path), host="127.0.0.1", port=0, workers=2, ttl_s=5.0
    ).start()
    yield srv
    srv.stop()


@pytest.fixture
def frontend(tmp_path):
    """A worker-less service: submitted jobs stay pending forever."""
    srv = ReproServer(
        root=str(tmp_path / "frontend"), host="127.0.0.1", port=0, workers=0
    ).start()
    yield srv
    srv.stop()


def _get(url: str):
    """GET one URL; returns (status, parsed-or-raw body)."""
    try:
        with urllib.request.urlopen(url) as resp:
            raw = resp.read()
            code = resp.status
    except urllib.error.HTTPError as exc:
        raw = exc.read()
        code = exc.code
    try:
        return code, json.loads(raw)
    except ValueError:
        return code, raw


def _post(url: str, doc):
    """POST one JSON document; returns (status, parsed body)."""
    request = urllib.request.Request(
        url, data=json.dumps(doc).encode(), headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _submit_and_wait(server: ReproServer, doc, timeout_s: float = 120.0):
    """Submit one job and poll it to completion; returns (job, final status)."""
    code, submitted = _post(f"{server.url}/api/v1/jobs", doc)
    assert code == 202, submitted
    job = submitted["job"]
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        code, status = _get(f"{server.url}/api/v1/jobs/{job['id']}")
        assert code == 200
        if status["state"] in ("done", "failed"):
            return job, status
        time.sleep(0.05)
    raise AssertionError(f"job {job['id']} still {status['state']} after {timeout_s}s")


def _artifacts(server: ReproServer, job_id: str):
    """Fetch all three artifact formats of a finished job."""
    blobs = {}
    for fmt in ("txt", "json", "csv"):
        code, body = _get(f"{server.url}/api/v1/jobs/{job_id}/artifacts/{fmt}")
        assert code == 200, body
        blobs[fmt] = body if isinstance(body, bytes) else json.dumps(body)
    return blobs


# ---------------------------------------------------------------------------------
# happy path + warm resubmission
# ---------------------------------------------------------------------------------


def test_submit_poll_fetch_then_warm_resubmit(server):
    """Cold drain computes the grid; resubmission computes 0, bytes equal."""
    job, status = _submit_and_wait(server, SWEEP_REQUEST)
    assert status["state"] == "done"
    assert status["cells"]["total"] == 4
    assert status["cells"]["computed"] == 4
    assert status["cells"]["cached"] == 0
    cold = _artifacts(server, job["id"])
    assert cold["txt"].decode().startswith(
        "Sweep — replication policies on synthetic workloads"
    )

    rejob, restatus = _submit_and_wait(server, SWEEP_REQUEST)
    assert rejob["id"] != job["id"]  # every submission is its own job
    assert restatus["state"] == "done"
    assert restatus["cells"]["computed"] == 0  # the warm path: all cache hits
    assert restatus["cells"]["cached"] == 4
    warm = _artifacts(server, rejob["id"])
    assert warm == cold  # byte-identical artifacts


def test_submission_wakes_idle_workers_and_stop_is_prompt(tmp_path):
    """Embedded workers start a job on submission, not at their next poll.

    The supervisor's idle poll is raised to 30 s.  The second job (new
    cells: another seed) is submitted while both workers sleep after the
    first, so finishing well inside 30 s means the submission's wake started
    it; a stop that returns well inside it was delivered by the shutdown's
    wake.
    """
    srv = ReproServer(
        root=str(tmp_path), host="127.0.0.1", port=0, workers=2, ttl_s=5.0
    )
    srv.supervisor.poll_s = 30.0
    srv.start()
    try:
        _submit_and_wait(srv, SWEEP_REQUEST)
        t0 = time.monotonic()
        _, status = _submit_and_wait(srv, {**SWEEP_REQUEST, "seed": 2}, timeout_s=20.0)
        second_s = time.monotonic() - t0
    finally:
        t0 = time.monotonic()
        srv.stop()
        stop_s = time.monotonic() - t0
    assert status["state"] == "done"
    assert status["cells"]["computed"] == 4
    assert second_s < 10.0
    # Without the wake, joining each sleeping worker would time out at 5 s.
    assert stop_s < 4.0


def test_target_job_roundtrip(server):
    """A registry target (table1) drains and serves its artifact stem."""
    job, status = _submit_and_wait(server, {"target": "table1", "scale": 0.05})
    assert status["state"] == "done"
    assert job["artifact"] == "table1_inventory"
    assert status["cells"]["total"] == 9  # one inventory cell per benchmark
    blobs = _artifacts(server, job["id"])
    assert b"Table I" in blobs["txt"]
    doc = json.loads(blobs["json"])
    assert doc["target"] == "table1" and doc["scale"] == 0.05
    assert len(doc["rows"]) == 9


def test_events_are_incrementally_consumable(server):
    """``?offset=`` pagination walks the journal without re-reading events."""
    job, _ = _submit_and_wait(server, SWEEP_REQUEST)
    code, first = _get(f"{server.url}/api/v1/jobs/{job['id']}/events")
    assert code == 200
    assert first["state"] == "done"
    kinds = [e["type"] for e in first["events"]]
    assert "plan" in kinds
    # Both workers drain the same job (that is the sharding), so the journal
    # may hold cache-hit cell events from the second drain — but each of the
    # four cells is *computed* exactly once.
    computed = [e for e in first["events"] if e["type"] == "cell" and not e["cached"]]
    assert len(computed) == 4
    assert len({e["key"] for e in computed}) == 4
    # Tail from the returned offset: nothing new arrives after completion.
    code, rest = _get(
        f"{server.url}/api/v1/jobs/{job['id']}/events?offset={first['next_offset']}"
    )
    assert code == 200
    assert rest["events"] == []
    assert rest["next_offset"] == first["next_offset"]


# ---------------------------------------------------------------------------------
# health / stats
# ---------------------------------------------------------------------------------


def test_health_reports_workers_alive(server):
    """Both embedded workers heartbeat; the queue drains to zero depth."""
    _submit_and_wait(server, SWEEP_REQUEST)
    code, health = _get(f"{server.url}/api/v1/health")
    assert code == 200
    assert health["ok"] is True
    assert health["queue_depth"] == 0
    assert health["workers_alive"] == 2
    assert health["lease_ttl_s"] == 5.0
    owners = {w["owner"] for w in health["workers"]}
    assert len(owners) == 2


def test_stats_reports_cache_hit_rate(server):
    """After a cold + warm drain the cache hit rate is exactly one half."""
    _submit_and_wait(server, SWEEP_REQUEST)
    _submit_and_wait(server, SWEEP_REQUEST)
    code, stats = _get(f"{server.url}/api/v1/stats")
    assert code == 200
    assert stats["jobs"]["total"] == 2
    assert stats["jobs"]["done"] == 2
    assert stats["cells"]["computed"] == 4
    assert stats["cells"]["cached"] == 4
    assert stats["cells"]["cache_hit_rate"] == 0.5
    assert stats["store"]["records"] == 4
    assert stats["store"]["leases_live"] == 0


# ---------------------------------------------------------------------------------
# error contract
# ---------------------------------------------------------------------------------


def test_submit_rejects_unknown_target(server):
    """400 with a helpful message, and no job is enqueued."""
    code, body = _post(f"{server.url}/api/v1/jobs", {"target": "fig99"})
    assert code == 400
    assert "unknown target" in body["error"]
    code, listing = _get(f"{server.url}/api/v1/jobs")
    assert code == 200 and listing["jobs"] == []


def test_submit_rejects_malformed_bodies(server):
    """Non-JSON and non-object bodies are 400, not tracebacks."""
    request = urllib.request.Request(
        f"{server.url}/api/v1/jobs", data=b"not json", headers={"Content-Type": "application/json"}
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request)
    assert err.value.code == 400
    code, body = _post(f"{server.url}/api/v1/jobs", {"workloads": []})
    assert code == 400


@pytest.mark.parametrize("field", ["scale", "n_seeds"])
def test_submit_rejects_non_finite_numbers(frontend, field):
    """A NaN is a 400 naming its field, and no job is enqueued."""
    code, body = _post(f"{frontend.url}/api/v1/jobs", {"target": "table1", field: float("nan")})
    assert code == 400
    assert field in body["error"]
    code, listing = _get(f"{frontend.url}/api/v1/jobs")
    assert code == 200 and listing["jobs"] == []


def test_unknown_job_and_route_are_404(server):
    """Unknown ids, formats, and routes all 404 with JSON errors."""
    code, body = _get(f"{server.url}/api/v1/jobs/jdoesnotexist")
    assert code == 404 and "unknown job" in body["error"]
    code, _ = _get(f"{server.url}/api/v1/nope")
    assert code == 404
    job, _ = _submit_and_wait(server, {"target": "table1", "scale": 0.05})
    code, body = _get(f"{server.url}/api/v1/jobs/{job['id']}/artifacts/pdf")
    assert code == 404 and "unknown artifact format" in body["error"]


def test_artifacts_before_done_are_409(frontend):
    """With no workers the job stays pending and artifacts are refused."""
    code, submitted = _post(f"{frontend.url}/api/v1/jobs", SWEEP_REQUEST)
    assert code == 202
    job_id = submitted["job"]["id"]
    code, status = _get(f"{frontend.url}/api/v1/jobs/{job_id}")
    assert code == 200 and status["state"] == "pending"
    code, body = _get(f"{frontend.url}/api/v1/jobs/{job_id}/artifacts/txt")
    assert code == 409
    assert "not finished" in body["error"]
