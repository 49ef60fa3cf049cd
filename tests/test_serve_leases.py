"""Cell leases and the multi-worker drain: exactly-once, crash-reclaim, grace.

Pins the sweep service's coordination invariants:

* lease acquisition is single-winner, re-entrant, and released cleanly;
* an expired (unrenewed) lease is reclaimed by exactly one contender;
* a half-written lease file is *never* quarantined by the result store — it
  gets the mtime+TTL grace period and is then reclaimed like any corpse;
* leases are invisible to the record API (``records``/``ls``) and counted
  separately by ``stats``/``gc``;
* two worker **processes** drain one job's grid exactly once (the computed
  counts sum to the grid size, no key is computed twice);
* a SIGKILLed lease holder loses its claim after the TTL and the surviving
  worker recomputes the cell bit-identically;
* dispatch: a wake that lands mid-scan is kept (also under thread churn), a
  worker with no wake signal still finds jobs by polling, a queue scan opens
  only pending job documents, and a job reported ``done`` has every cell in
  its status.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import settings
from repro.analysis.store import ResultStore
from repro.serve.jobs import JobStore
from repro.serve.leases import LeaseHeartbeat, LeaseStore, default_owner_id
from repro.serve.workers import SweepWorker, WakeSignal

KEY = "ab" * 32  # a syntactically valid (sharded) store key


def _env_with_src() -> dict:
    """A subprocess environment that can ``import repro``."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


# ---------------------------------------------------------------------------------
# lease primitives
# ---------------------------------------------------------------------------------


def test_acquire_is_single_winner_and_reentrant(tmp_path):
    """One owner wins a free key; the winner may re-acquire; losers may not."""
    a = LeaseStore(str(tmp_path), owner="a", ttl_s=30.0)
    b = LeaseStore(str(tmp_path), owner="b", ttl_s=30.0)
    assert a.acquire(KEY)
    assert a.acquire(KEY)  # re-entrant for the holder
    assert not b.acquire(KEY)
    record = b.peek(KEY)
    assert record is not None and record.owner == "a" and not record.expired()


def test_release_frees_the_key_for_others(tmp_path):
    """After release, another owner acquires; non-holders cannot release."""
    a = LeaseStore(str(tmp_path), owner="a", ttl_s=30.0)
    b = LeaseStore(str(tmp_path), owner="b", ttl_s=30.0)
    assert a.acquire(KEY)
    assert not b.release(KEY)  # not the holder
    assert a.release(KEY)
    assert b.acquire(KEY)


def test_expired_lease_is_reclaimed(tmp_path):
    """A holder that stops renewing loses the key after one TTL."""
    dead = LeaseStore(str(tmp_path), owner="dead", ttl_s=0.05)
    live = LeaseStore(str(tmp_path), owner="live", ttl_s=0.05)
    assert dead.acquire(KEY)
    assert not live.acquire(KEY)  # still within the TTL
    time.sleep(0.1)
    assert live.acquire(KEY)
    record = live.peek(KEY)
    assert record is not None and record.owner == "live"


def test_renew_extends_deadline_and_detects_loss(tmp_path):
    """Renewal pushes the deadline out; a reclaimed lease refuses renewal."""
    a = LeaseStore(str(tmp_path), owner="a", ttl_s=0.2)
    assert a.acquire(KEY)
    first = a.peek(KEY)
    time.sleep(0.05)
    assert a.renew(KEY)
    renewed = a.peek(KEY)
    assert renewed.deadline > first.deadline
    assert renewed.renewals == 1
    # Simulate a reclaim from under us: the corpse expires, b takes over.
    time.sleep(0.25)
    b = LeaseStore(str(tmp_path), owner="b", ttl_s=0.2)
    assert b.acquire(KEY)
    assert not a.renew(KEY)


def test_heartbeat_guard_renews_and_reports_loss(tmp_path):
    """The heartbeat keeps guarded keys alive and records genuine losses."""
    a = LeaseStore(str(tmp_path), owner="a", ttl_s=0.3)
    beat = LeaseHeartbeat(a, interval_s=0.05)
    assert a.acquire(KEY)
    beat.start()
    try:
        with beat.guard(KEY):
            time.sleep(0.6)  # two TTLs: only renewals keep the lease alive
            record = a.peek(KEY)
            assert record is not None and not record.expired()
            assert record.renewals > 0
        assert KEY not in beat.lost
        # Steal the lease, then beat: the loss must be detected while guarded.
        a.release(KEY)
        b = LeaseStore(str(tmp_path), owner="b", ttl_s=30.0)
        assert b.acquire(KEY)
        with beat.guard(KEY):
            beat.beat()
        assert KEY in beat.lost
    finally:
        beat.stop()


def test_default_owner_ids_are_unique():
    """Two workers in one process must still get distinct identities."""
    assert default_owner_id() != default_owner_id()


def test_lease_ttl_env_override(monkeypatch):
    """``REPRO_LEASE_TTL_S`` configures the default TTL; garbage fails by name."""
    monkeypatch.setenv("REPRO_LEASE_TTL_S", "7.5")
    assert settings.get("REPRO_LEASE_TTL_S") == 7.5
    assert LeaseStore("/tmp/unused-root", owner="x").ttl_s == 7.5
    monkeypatch.setenv("REPRO_LEASE_TTL_S", "not-a-number")
    with pytest.raises(ValueError, match="REPRO_LEASE_TTL_S"):
        settings.get("REPRO_LEASE_TTL_S")


# ---------------------------------------------------------------------------------
# store integration: leases are a namespace, never quarantined
# ---------------------------------------------------------------------------------


def test_half_written_lease_is_not_quarantined(tmp_path):
    """A torn lease file must not be quarantined or block the records API."""
    store = ResultStore(str(tmp_path))
    path = store.lease_path_for(KEY)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"owner": "torn", "dead')  # interrupted mid-write
    # Freshly torn: grace period applies — acquire fails, nothing is deleted.
    other = LeaseStore(str(tmp_path), owner="other", ttl_s=30.0)
    assert not other.acquire(KEY)
    assert os.path.exists(path)
    assert not any(".corrupt" in name for name in os.listdir(os.path.dirname(path)))
    assert store.stats()["leases_live"] == 1
    # Once older than the TTL it reads as expired and is reclaimable.
    old = time.time() - 60.0
    os.utime(path, (old, old))
    assert store.stats()["leases_expired"] == 1
    fast = LeaseStore(str(tmp_path), owner="fast", ttl_s=30.0)
    assert fast.acquire(KEY)
    assert fast.peek(KEY).owner == "fast"


def test_leases_are_invisible_to_the_record_api(tmp_path):
    """``records``/``ls`` list only result records, whatever leases exist."""
    store = ResultStore(str(tmp_path))
    lease = LeaseStore(str(tmp_path), owner="a", ttl_s=30.0)
    assert lease.acquire(KEY)
    assert store.ls() == []
    assert list(store.records()) == []
    stats = store.stats()
    assert stats["records"] == 0
    assert stats["leases_live"] == 1


def test_gc_counts_and_reaps_leases_separately(tmp_path):
    """gc removes expired leases and reclaim tombstones, keeps live ones."""
    store = ResultStore(str(tmp_path))
    live = LeaseStore(str(tmp_path), owner="live", ttl_s=3600.0)
    assert live.acquire(KEY)
    expired_key = "cd" * 32
    dead = LeaseStore(str(tmp_path), owner="dead", ttl_s=3600.0)
    assert dead.acquire(expired_key)
    old = time.time() - 7200.0
    os.utime(dead.lease_path(expired_key), (old, old))
    with open(dead.lease_path(expired_key), "r+", encoding="utf-8") as fh:
        doc = json.load(fh)
        doc["deadline"] = old
        fh.seek(0)
        json.dump(doc, fh)
        fh.truncate()
    os.utime(dead.lease_path(expired_key), (old, old))
    # An orphan reclaim tombstone (reclaimer crashed between rename and unlink).
    tomb = store.lease_path_for("ef" * 32) + ".reclaim.1.aa"
    os.makedirs(os.path.dirname(tomb), exist_ok=True)
    with open(tomb, "w", encoding="utf-8") as fh:
        fh.write("{}")
    removed = store.gc()
    assert removed["lease_live"] == 1
    assert removed["lease_expired"] == 2  # the expired lease + the tombstone
    assert os.path.exists(live.lease_path(KEY))
    assert not os.path.exists(dead.lease_path(expired_key))
    assert not os.path.exists(tomb)


def test_clear_also_removes_leases(tmp_path):
    """``clear`` leaves no lease files behind (count stays records-only)."""
    store = ResultStore(str(tmp_path))
    lease = LeaseStore(str(tmp_path), owner="a", ttl_s=30.0)
    assert lease.acquire(KEY)
    assert store.clear() == 0  # no records existed
    assert store.stats()["leases_live"] == 0


# ---------------------------------------------------------------------------------
# multi-process drains
# ---------------------------------------------------------------------------------

#: The concurrency-test job, straight from the acceptance criteria: the
#: fig5 sweep at scale 0.2 (5 core counts x 3 fault rates = 15 cells; the
#: target's own 0.5 scale floor applies, exactly as it does on the CLI).
JOB_REQUEST = {"target": "fig5", "scale": 0.2}
TOTAL_CELLS = 15

_WORKER_SCRIPT = """
import json, sys
from repro.serve.workers import SweepWorker
worker = SweepWorker(sys.argv[1], ttl_s=5.0)
worker.run_forever(poll_s=0.05, idle_exit=True)
print(json.dumps({
    "owner": worker.owner,
    "computed": worker.cells_computed,
    "cached": worker.cells_cached,
    "drained": worker.jobs_drained,
}))
"""


def _drain_with_n_processes(root: str, n: int) -> list:
    """Run n worker processes to completion; return their summaries."""
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _WORKER_SCRIPT, root],
            env=_env_with_src(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(n)
    ]
    summaries = []
    for proc in procs:
        out, err = proc.communicate(timeout=180)
        assert proc.returncode == 0, err
        summaries.append(json.loads(out.strip().splitlines()[-1]))
    return summaries


def test_two_worker_processes_drain_exactly_once(tmp_path):
    """Two real processes share one grid: every cell computed exactly once."""
    root = str(tmp_path)
    jobs = JobStore(root)
    job = jobs.submit(JOB_REQUEST)
    summaries = _drain_with_n_processes(root, 2)

    status = jobs.status(job["id"])
    assert status["state"] == "done"
    total = status["cells"]["total"]
    assert total == TOTAL_CELLS
    # Exactly-once, three ways: the per-worker computed counts sum to the grid
    # size; the journal saw no key computed twice; the store holds one record
    # per cell (each write-once — a duplicate would just overwrite, so the
    # journal check is the authoritative one).
    assert sum(s["computed"] for s in summaries) == total
    assert status["cells"]["computed"] == total
    store = ResultStore(root)
    assert store.stats()["records"] == total
    # Both processes participated in the drain and both saw the job finish.
    assert {s["owner"] for s in summaries} == set(status["workers"])
    assert all(s["drained"] == 1 for s in summaries)
    # No leases survive a clean drain.
    assert store.stats()["leases_live"] == 0


_HOLDER_SCRIPT = """
import sys, time
from repro.serve.leases import LeaseStore
leases = LeaseStore(sys.argv[1], owner="doomed-holder", ttl_s=float(sys.argv[3]))
assert leases.acquire(sys.argv[2])
print("held", flush=True)
time.sleep(600)
"""


def test_killed_holder_is_reclaimed_and_recomputed_bit_identically(tmp_path):
    """SIGKILL a lease holder: the survivor reclaims and recomputes the cell.

    The reference payload comes from an independent drain in a separate cache
    root — content-addressed keys are root-independent, so the recomputed
    record must match it byte-for-byte.
    """
    ref_root = str(tmp_path / "reference")
    ref_jobs = JobStore(ref_root)
    ref_jobs.submit(JOB_REQUEST)
    SweepWorker(ref_root, ttl_s=5.0).run_forever(poll_s=0.05, idle_exit=True)
    ref_store = ResultStore(ref_root)
    ref_records = {record.key for record in ref_store.records()}
    assert len(ref_records) == TOTAL_CELLS

    # Fresh root, same job; a holder process claims one known cell key...
    root = str(tmp_path / "contended")
    jobs = JobStore(root)
    job = jobs.submit(JOB_REQUEST)
    victim_key = sorted(ref_records)[0]
    ttl = "1.0"
    holder = subprocess.Popen(
        [sys.executable, "-c", _HOLDER_SCRIPT, root, victim_key, ttl],
        env=_env_with_src(),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        assert holder.stdout.readline().strip() == "held"
        # ... and dies without releasing it.
        holder.send_signal(signal.SIGKILL)
        holder.wait(timeout=30)

        store = ResultStore(root)
        assert store.stats()["leases_live"] == 1  # the corpse is on disk

        survivor = SweepWorker(root, ttl_s=1.0)
        survivor.run_forever(poll_s=0.05, idle_exit=True)
    finally:
        if holder.poll() is None:  # pragma: no cover - kill already sent
            holder.kill()
        holder.stdout.close()

    status = jobs.status(job["id"])
    assert status["state"] == "done"
    assert status["cells"]["computed"] == TOTAL_CELLS  # incl. the contested cell
    # Bit-identical recomputation: every record matches the reference drain
    # (records embed payload + spec + version; only the timing/creation
    # fields may differ, so compare the parsed documents without them).
    keys = {record.key for record in store.records()}
    assert keys == ref_records
    for key in keys:
        with open(store.path_for(key), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        with open(ref_store.path_for(key), "r", encoding="utf-8") as fh:
            ref_doc = json.load(fh)
        doc.pop("elapsed_s", None), ref_doc.pop("elapsed_s", None)
        doc.pop("created_at", None), ref_doc.pop("created_at", None)
        assert doc == ref_doc


# ---------------------------------------------------------------------------------
# dispatch: the wake signal, the fallback poll, queue scans, status reads
# ---------------------------------------------------------------------------------

#: A small sweep job: 2 multipliers x 2 fault rates over one tiny workload.
SWEEP_REQUEST = {
    "workloads": ["layered:depth=3,width=2,seed=1"],
    "multipliers": [10.0, 5.0],
    "fault_rates": [0.0, 0.01],
    "scale": 0.2,
}


def test_wake_signal_keeps_a_notify_that_lands_mid_scan():
    """A submission between reading the generation and waiting is not lost."""
    wake = WakeSignal()
    seen = wake.generation  # a worker reads it, then scans the queue ...
    wake.notify()  # ... while a job is submitted
    t0 = time.monotonic()
    wake.wait(seen, timeout=30.0)
    assert time.monotonic() - t0 < 5.0
    t0 = time.monotonic()
    wake.wait(wake.generation, timeout=0.05)  # nothing new: the poll timeout
    assert time.monotonic() - t0 >= 0.04


def test_wake_signal_loses_no_notify_under_thread_churn():
    """Four waiters (more than the cores) loop like a worker: read the
    generation, scan, wait.  Notifications keep landing mid-scan; a lost one
    would leave a waiter sleeping out its 30 s timeout after the last."""
    wake = WakeSignal()
    rounds = 200

    def waiter():
        while True:
            seen = wake.generation
            if seen >= rounds:
                return
            time.sleep(0.0005)  # the queue scan
            wake.wait(seen, timeout=30.0)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=waiter) for _ in range(4)]
        for thread in threads:
            thread.start()
        for _ in range(rounds):
            wake.notify()
            time.sleep(0.0002)
        deadline = time.monotonic() + 10.0
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)


def test_supervisorless_worker_finds_foreign_jobs_by_polling(tmp_path):
    """Without a wake signal, the timed poll still picks up a job written
    straight into ``serve/jobs/`` (what another process's submit does)."""
    root = str(tmp_path)
    worker = SweepWorker(root, ttl_s=5.0)
    stop = threading.Event()
    thread = threading.Thread(
        target=worker.run_forever, kwargs={"stop": stop, "poll_s": 0.05}
    )
    thread.start()
    try:
        deadline = time.monotonic() + 10.0
        while not os.path.exists(worker.liveness_path):  # the loop is running
            assert time.monotonic() < deadline
            time.sleep(0.01)
        jobs = JobStore(root)
        job = jobs.submit(SWEEP_REQUEST)
        deadline = time.monotonic() + 60.0
        while jobs.status(job["id"])["state"] not in ("done", "failed"):
            assert time.monotonic() < deadline, "the polling worker never drained the job"
            time.sleep(0.02)
    finally:
        stop.set()
        thread.join(timeout=30.0)
    status = jobs.status(job["id"])
    assert status["state"] == "done"
    assert status["cells"]["computed"] == status["cells"]["total"] == 4


def test_pending_jobs_opens_only_pending_documents(tmp_path, monkeypatch):
    """A scan over 200 finished and 2 pending jobs loads exactly 2 documents."""
    jobs = JobStore(str(tmp_path))
    submitted = [jobs.submit({"target": "table1"}) for _ in range(202)]
    open_ids = [submitted[60]["id"], submitted[140]["id"]]
    for i, job in enumerate(submitted):
        if job["id"] in open_ids:
            continue
        if i % 2:
            jobs.mark_done(job["id"], {"owner": "w0"})
        else:
            jobs.mark_failed(job["id"], "w0", "boom")
    loaded = []
    get = JobStore.get

    def counting_get(self, job_id):
        loaded.append(job_id)
        return get(self, job_id)

    monkeypatch.setattr(JobStore, "get", counting_get)
    assert [job["id"] for job in jobs.pending_jobs()] == open_ids  # oldest first
    assert sorted(loaded) == sorted(open_ids)


def test_status_reads_markers_before_the_journal(tmp_path, monkeypatch):
    """A job finishing between status's two reads never shows ``done`` with
    a cell missing: the last cell event and the done marker are made to land
    right after the journal read."""
    jobs = JobStore(str(tmp_path))
    job_id = jobs.submit({"target": "table1"})["id"]
    keys = ["a" * 64, "b" * 64]
    jobs.append_plan_event(job_id, keys, "w0")
    jobs.append_event(job_id, {"type": "cell", "key": keys[0], "owner": "w0"})
    read_journal = jobs.events

    def journal_then_finish(job_id, offset=0):
        events = read_journal(job_id, offset)
        if not os.path.exists(jobs.done_path(job_id)):
            jobs.append_event(job_id, {"type": "cell", "key": keys[1], "owner": "w0"})
            jobs.mark_done(job_id, {"owner": "w0"})
        return events

    monkeypatch.setattr(jobs, "events", journal_then_finish)
    racing = jobs.status(job_id)
    assert racing["state"] == "running"
    assert racing["cells"]["done"] == 1
    final = jobs.status(job_id)
    assert final["state"] == "done"
    assert final["cells"]["done"] == final["cells"]["total"] == 2
