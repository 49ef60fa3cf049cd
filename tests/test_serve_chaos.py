"""The chaos harness: seeded fault injection, retries, quarantine, supervision.

Pins the robustness contract of :mod:`repro.serve.chaos` and the machinery
built to absorb its faults:

* the ``REPRO_CHAOS`` spec grammar canonicalises like workload specs and
  rejects misconfiguration loudly;
* every injection is a pure function of ``(seed, site, key, n)`` — the same
  profile over the same grid reproduces the same fault schedule;
* the **no-hang guarantee**: a permanently failing cell exhausts its attempt
  budget, is quarantined with its exception chain, and the job reaches a
  terminal ``failed`` state within bounded time — visible via HTTP status,
  the write-once failed marker, a 409 artifact contract, and ``repro
  status``;
* an I/O error on an attempt claim fails the job with that error and
  poisons nothing: only a spent budget quarantines a cell;
* chaos worker kills are restarted by the supervisor and the drain still
  completes; a crash-looping slot is abandoned at its cap, not respawned
  forever;
* injected HTTP 5xx / connection resets are absorbed by the client's
  retry/backoff;
* SIGKILLed workers' liveness files age out: ``stale`` in listings, reaped
  by ``gc``.
"""

from __future__ import annotations

import builtins
import errno
import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.analysis.runner import clear_caches
from repro.analysis.store import ResultStore
from repro.cli import main as cli_main
from repro.serve.app import ReproServer
from repro.serve.chaos import (
    ChaosEngine,
    WorkerKilled,
    active_chaos,
    injected_multiset,
    parse_chaos,
    read_injected_log,
)
from repro.serve.jobs import JobStore
from repro.serve import workers as workers_mod
from repro.serve.workers import SweepWorker, WorkerSupervisor, list_workers

#: A two-cell grid (2 multipliers x 1 fault rate x 1 workload x 1 policy):
#: small enough for failure-path tests to be fast, real enough to exercise
#: the full lease/attempt machinery.
GRID2 = {
    "workloads": ["layered:depth=3,width=2,seed=1"],
    "policies": ["app_fit"],
    "multipliers": [10.0, 5.0],
    "fault_rates": [0.0],
    "scale": 0.2,
}


@pytest.fixture(autouse=True)
def _fresh_memo():
    """Per-process graph memos must not leak across chaos tests."""
    clear_caches()
    yield
    clear_caches()


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
    """Submit one job and poll it to a terminal state; returns (job, status)."""
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


def _drain_once(root: str, request) -> str:
    """Submit one job to a root and drain it with one worker; returns job id."""
    worker = SweepWorker(root, ttl_s=5.0)
    job = worker.jobs.submit(request)
    worker.run_forever(stop=threading.Event(), poll_s=0.05, idle_exit=True)
    return job["id"]


# ---------------------------------------------------------------------------------
# the spec grammar
# ---------------------------------------------------------------------------------


def test_chaos_spec_canonicalises_like_workload_specs():
    """Spelling order never matters: one schedule, one canonical string."""
    a = parse_chaos("light:p_kill=0.1,seed=7")
    b = parse_chaos(" light:seed=7,p_kill=0.1 ")
    assert a == b
    assert a.canonical == b.canonical
    assert a.canonical.startswith("light:")
    # Defaults are filled in explicitly, so the canonical form is total.
    assert "p_io=0.05" in a.canonical and "seed=7" in a.canonical


def test_chaos_profiles_fill_defaults_and_report_activity():
    off = parse_chaos("off")
    assert off.param("p_io") == 0.0 and off.param("seed") == 0
    assert not off.active
    assert parse_chaos("light").active
    assert parse_chaos("off:p_cell_fail=0.5").active


def test_chaos_spec_rejects_misconfiguration_loudly():
    """A typo in REPRO_CHAOS must fail, not silently run without chaos."""
    with pytest.raises(KeyError):
        parse_chaos("medium")
    with pytest.raises(ValueError):
        parse_chaos("light:p_oops=0.5")
    with pytest.raises(ValueError):
        parse_chaos("light:p_kill")  # missing '='
    with pytest.raises(ValueError):
        parse_chaos("off:p_io=1.5")  # probability out of [0, 1]
    with pytest.raises(ValueError):
        parse_chaos("off:seed=lots")


def test_active_chaos_reads_the_environment(tmp_path, monkeypatch):
    """Unset or inactive profiles mean no engine; engines cache per root."""
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    assert active_chaos(str(tmp_path)) is None
    monkeypatch.setenv("REPRO_CHAOS", "off")
    assert active_chaos(str(tmp_path)) is None  # explicit no-op profile
    monkeypatch.setenv("REPRO_CHAOS", "off:p_io=0.5,seed=4")
    engine = active_chaos(str(tmp_path))
    assert engine is not None
    assert engine is active_chaos(str(tmp_path))  # cached: shared counters
    other = active_chaos(str(tmp_path / "elsewhere"))
    assert other is not None and other is not engine  # fresh root, fresh counters


# ---------------------------------------------------------------------------------
# deterministic draws and the injection log
# ---------------------------------------------------------------------------------


def test_draws_are_keyed_not_time_ordered():
    """The same (seed, site, key, n) always draws the same uniform."""
    profile = parse_chaos("off:p_io=0.5,seed=9")
    a = ChaosEngine(profile)
    b = ChaosEngine(profile)
    key = "f" * 64
    assert [a.uniform("store_put_io", key, n) for n in range(8)] == [
        b.uniform("store_put_io", key, n) for n in range(8)
    ]
    # A different seed is a genuinely different schedule.
    c = ChaosEngine(parse_chaos("off:p_io=0.5,seed=10"))
    assert [a.uniform("store_put_io", key, n) for n in range(8)] != [
        c.uniform("store_put_io", key, n) for n in range(8)
    ]


def test_injections_are_journalled_and_deduped(tmp_path):
    """Every hit lands in injected.jsonl; the multiset collapses racing logs."""
    engine = ChaosEngine(parse_chaos("off:p_io=1.0,seed=1"), root=str(tmp_path))
    key = "a" * 64
    assert engine.store_put_fails(key)
    assert engine.store_put_fails(key)  # ordinal advances: a distinct draw
    assert engine.injected["store_put_io"] == 2
    log = read_injected_log(str(tmp_path))
    assert [(e["site"], e["n"]) for e in log] == [("store_put_io", 0), ("store_put_io", 1)]
    # Two workers racing one reclaimed decision log the same (site, key, n)
    # twice; the order-free schedule they compare is identical either way.
    engine._log("store_put_io", key, 1)
    assert injected_multiset(str(tmp_path)) == [
        ("store_put_io", key, 0),
        ("store_put_io", key, 1),
    ]


def test_kill_budget_caps_injected_kills():
    """max_kills bounds the kill site; the budget is engine-global."""
    engine = ChaosEngine(parse_chaos("off:p_kill=1.0,max_kills=1,seed=2"))
    with pytest.raises(WorkerKilled):
        engine.maybe_kill("b" * 64, attempt=0)
    engine.maybe_kill("b" * 64, attempt=1)  # budget spent: no raise
    engine.maybe_kill("c" * 64, attempt=0)
    assert engine.injected["kill"] == 1


def test_replay_reproduces_the_injection_schedule(tmp_path, monkeypatch):
    """Same profile + same grid -> identical (site, key, n) fault multiset.

    Only non-failing fault sites (torn leases, rename delays, slow cells) so
    both runs complete; each run gets a fresh cache root and therefore fresh
    ordinal counters, exactly like the CI soak's replay phase.
    """
    monkeypatch.setenv(
        "REPRO_CHAOS",
        "off:p_torn_lease=0.7,p_rename_delay=0.7,rename_delay_ms=1.0,"
        "p_slow=0.7,slow_ms=1.0,seed=11",
    )
    schedules = []
    for sub in ("first", "second"):
        clear_caches()
        root = str(tmp_path / sub)
        job_id = _drain_once(root, GRID2)
        assert JobStore(root).status(job_id)["state"] == "done"
        schedules.append(injected_multiset(root))
    assert schedules[0], "the chaos profile injected nothing"
    assert schedules[0] == schedules[1]


def test_torn_leases_never_break_a_drain(tmp_path, monkeypatch):
    """Every published lease torn mid-write: the grace rule absorbs all of it."""
    monkeypatch.setenv("REPRO_CHAOS", "off:p_torn_lease=1.0,seed=2")
    job_id = _drain_once(str(tmp_path), GRID2)
    status = JobStore(str(tmp_path)).status(job_id)
    assert status["state"] == "done"
    assert status["cells"]["done"] == 2
    assert {site for site, _, _ in injected_multiset(str(tmp_path))} == {"lease_torn"}


# ---------------------------------------------------------------------------------
# the failure path: retries, quarantine, terminal failed (the no-hang guarantee)
# ---------------------------------------------------------------------------------


def test_permanently_failing_cell_quarantines_and_fails_the_job(
    tmp_path, monkeypatch, capsys
):
    """The ISSUE's no-hang guarantee, end to end over a real server.

    Every cell attempt raises (p_cell_fail=1.0) and the budget is 2, so each
    cell burns its attempts, is poisoned with its exception chain, and the
    job must reach terminal ``failed`` — within the poll deadline, never
    hanging its pollers — with the chain visible in HTTP status, the 409
    artifact contract intact, and ``repro status`` round-tripping all of it.
    """
    monkeypatch.setenv("REPRO_CHAOS", "off:p_cell_fail=1.0,seed=1")
    monkeypatch.setenv("REPRO_CELL_ATTEMPTS", "2")
    server = ReproServer(
        root=str(tmp_path), host="127.0.0.1", port=0, workers=1, ttl_s=5.0
    ).start()
    try:
        job, status = _submit_and_wait(server, GRID2, timeout_s=60.0)
        assert status["state"] == "failed"
        assert "quarantined" in status["error"]
        assert status["cells"]["retries"] >= 1
        quarantined = status["quarantined"]
        assert quarantined, "the failed status must carry the poisoned cells"
        first = quarantined[0]
        assert first["attempts"] == 2
        assert "injected failure at cell" in first["errors"][0]["error"]

        # Artifact requests for a failed job honour the 409 contract.
        code, body = _get(f"{server.url}/api/v1/jobs/{job['id']}/artifacts/txt")
        assert code == 409

        # The failed marker is write-once: a later drain cannot clobber the
        # first recorded failure chain.
        jobs = JobStore(str(tmp_path))
        assert not jobs.mark_failed(job["id"], "someone-else", "later failure")
        assert jobs.status(job["id"])["error"] == status["error"]

        # The poison tombstone itself is on disk and visible to store stats.
        assert ResultStore(str(tmp_path)).stats()["poisoned"] >= 1

        # `repro status JOB_ID` round-trips the journal-derived document.
        assert cli_main(["status", job["id"], "--url", server.url]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["state"] == "failed"
        assert doc["quarantined"] == quarantined
        assert doc["cells"]["retries"] == status["cells"]["retries"]
    finally:
        server.stop()


def test_transient_cell_failures_are_retried_to_success(tmp_path, monkeypatch):
    """A cell that fails once then succeeds costs a retry event, not the job.

    p_cell_fail draws on the durable attempt ordinal, so seed=6 is chosen so
    attempt 0 of at least one cell fails while attempt 1 passes — the drain
    must absorb that into a ``done`` job with ``retries`` visible in status.
    """
    probe = ChaosEngine(parse_chaos("off:p_cell_fail=0.6,seed=6"))
    monkeypatch.setenv("REPRO_CHAOS", "off:p_cell_fail=0.6,seed=6")
    monkeypatch.setenv("REPRO_CELL_ATTEMPTS", "8")
    job_id = _drain_once(str(tmp_path), GRID2)
    status = JobStore(str(tmp_path)).status(job_id)
    injected = injected_multiset(str(tmp_path))
    failed_attempts = [(k, n) for site, k, n in injected if site == "cell_fail"]
    if not failed_attempts:  # the seed missed both cells: nothing to pin
        pytest.skip("seed injected no cell failures for this grid")
    # Determinism cross-check: the injected schedule matches a fresh probe.
    for key, n in failed_attempts:
        assert probe.uniform("cell_fail", key, n) < 0.6
    assert status["state"] == "done"
    assert status["cells"]["done"] == 2
    assert status["cells"]["retries"] == len(failed_attempts)
    assert status["quarantined"] == []


def test_an_io_error_on_an_attempt_claim_poisons_nothing(tmp_path, monkeypatch):
    """One EMFILE from the first attempt-marker file fails the job with that
    error; no tombstone is written, so a resubmission computes the grid."""
    fired = []

    def emfile_once(opener):
        def wrapped(path, *args, **kwargs):
            if not fired and isinstance(path, str) and ".attempt." in path:
                fired.append(path)
                raise OSError(errno.EMFILE, "Too many open files", path)
            return opener(path, *args, **kwargs)

        return wrapped

    # Both the file a claim writes and an exclusive create of the marker.
    monkeypatch.setattr(builtins, "open", emfile_once(builtins.open))
    monkeypatch.setattr(os, "open", emfile_once(os.open))
    root = str(tmp_path)
    jobs = JobStore(root)
    status = jobs.status(_drain_once(root, GRID2))
    assert fired
    assert status["state"] == "failed"
    assert "Too many open files" in status["error"]
    assert status["quarantined"] == []
    assert ResultStore(root).stats()["poisoned"] == 0
    again = jobs.status(_drain_once(root, GRID2))
    assert again["state"] == "done"
    assert again["cells"]["computed"] == 2


# ---------------------------------------------------------------------------------
# worker kills, supervision, crash loops
# ---------------------------------------------------------------------------------


def test_supervisor_restarts_a_chaos_killed_worker(tmp_path, monkeypatch):
    """A kill -9 at a cell boundary is absorbed: restart, reclaim, complete."""
    monkeypatch.setenv("REPRO_CHAOS", "off:p_kill=1.0,max_kills=1,seed=3")
    server = ReproServer(
        root=str(tmp_path), host="127.0.0.1", port=0, workers=1, ttl_s=2.0
    ).start()
    try:
        job, status = _submit_and_wait(server, GRID2, timeout_s=120.0)
        assert status["state"] == "done"
        assert status["cells"]["computed"] == 2
        code, stats = _get(f"{server.url}/api/v1/stats")
        assert code == 200
        assert stats["supervisor"]["restarts"] >= 1
        assert stats["supervisor"]["crash_looped"] == 0
        assert stats["chaos"]["injected"].get("kill") == 1
        code, health = _get(f"{server.url}/api/v1/health")
        assert code == 200
        assert health["supervisor"]["alive"] >= 1
        # The kill is in the replayable schedule, at the attempt it struck.
        kills = [e for e in injected_multiset(str(tmp_path)) if e[0] == "kill"]
        assert len(kills) == 1 and kills[0][2] == 0
    finally:
        server.stop()


def test_crash_looping_slot_is_abandoned_at_the_cap(tmp_path, monkeypatch):
    """A worker that dies instantly every time is not respawned forever."""

    class _Boom:
        def __init__(self, root, ttl_s=None):
            self.owner = "boom"

        def run_forever(self, stop=None, poll_s=0.5, wake=None):
            raise RuntimeError("dies instantly")

    monkeypatch.setattr(workers_mod, "SweepWorker", _Boom)
    supervisor = WorkerSupervisor(
        str(tmp_path),
        count=1,
        max_restarts=2,
        backoff_base_s=0.01,
        backoff_max_s=0.02,
    )
    supervisor.start()
    try:
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if supervisor.stats()["crash_looped"] == 1:
                break
            time.sleep(0.02)
        stats = supervisor.stats()
        assert stats["crash_looped"] == 1
        assert stats["alive"] == 0
        assert supervisor.restarts == 2  # the cap, then the slot is abandoned
    finally:
        supervisor.stop()


# ---------------------------------------------------------------------------------
# HTTP chaos vs the client's retry/backoff
# ---------------------------------------------------------------------------------


def test_client_retries_absorb_injected_http_failures(tmp_path, monkeypatch, capsys):
    """`repro status` survives a 503 *and* a connection reset, then succeeds.

    With seed=0 / p_http=0.6 the draws for /api/v1/jobs go hit, hit, hit,
    hit, miss, hit — ordinal parity makes the streak 503, reset, 503, reset
    — so the default 5-attempt client absorbs four failures and succeeds on
    its very last attempt, while a 1-attempt client meets the next hit and
    surfaces the error.
    """
    monkeypatch.setenv("REPRO_CHAOS", "off:p_http=0.6,seed=0")
    server = ReproServer(
        root=str(tmp_path), host="127.0.0.1", port=0, workers=0
    ).start()
    try:
        assert cli_main(["status", "--url", server.url]) == 0
        assert "no jobs" in capsys.readouterr().out
        engine = active_chaos(str(tmp_path))
        assert engine.injected.get("http") == 4
        # With retries capped below the failure streak, the error surfaces.
        assert cli_main(["status", "--url", server.url, "--retries", "1"]) == 1
        assert "repro:" in capsys.readouterr().err
    finally:
        server.stop()


# ---------------------------------------------------------------------------------
# stale liveness files (SIGKILLed workers) age out
# ---------------------------------------------------------------------------------


def test_stale_worker_liveness_files_age_out(tmp_path):
    """A SIGKILLed worker's liveness file goes stale and gc reaps it."""
    store = ResultStore(str(tmp_path))
    workers_dir = os.path.join(store.root, "serve", "workers")
    os.makedirs(workers_dir)
    now = time.time()
    dead = os.path.join(workers_dir, "w-dead.json")
    with open(dead, "w", encoding="utf-8") as fh:
        json.dump({"owner": "w-dead", "updated_at": now - 1000.0, "interval_s": 2.0}, fh)
    os.utime(dead, (now - 1000.0, now - 1000.0))
    live = os.path.join(workers_dir, "w-live.json")
    with open(live, "w", encoding="utf-8") as fh:
        json.dump({"owner": "w-live", "updated_at": now, "interval_s": 2.0}, fh)

    rows = {r["owner"]: r for r in list_workers(str(tmp_path))}
    assert rows["w-dead"]["stale"] and not rows["w-dead"]["alive"]
    assert not rows["w-live"]["stale"] and rows["w-live"]["alive"]

    removed = store.gc()
    assert removed["workers_stale"] == 1
    assert not os.path.exists(dead)
    assert os.path.exists(live)  # a fresh worker is never aged out
