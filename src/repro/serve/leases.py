"""Cell leases: atomic, expiring claims over result-store keys.

The sweep service shards a grid across N workers — on one machine or several
— through nothing but the shared cache root: before computing a cell, a
worker *claims* it by creating a lease file next to the cell's (future)
result record (:meth:`~repro.analysis.store.ResultStore.lease_path_for`).
Lease creation is atomic (hard-link publication of a fully written document,
``O_CREAT | O_EXCL`` fallback), so exactly one worker wins a free key; the
winner renews a heartbeat while computing, and everyone else either waits for
the result to appear or — once the lease's deadline passes without renewal —
reclaims the key and retries the cell.  That is what turns a crashed worker's
cells into *retried* cells instead of lost ones.

State machine of one key's lease::

    (free) --acquire--> held(owner, deadline)
      held --renew-----> held(owner, deadline')          (heartbeat, owner only)
      held --release---> (free)                          (owner only)
      held --deadline passes--> expired
      expired --reclaim (single winner via rename)--> (free) --acquire--> held'

Safety argument (see docs/architecture.md for the long form):

* **At most one holder per key** while no deadline has passed: creation is
  atomic-exclusive, and reclaim's first step renames the expired lease file —
  a rename only one contender can win — before the key becomes acquirable.
* **Progress**: a holder that stops renewing (crash, kill -9, partition)
  loses the key after at most one TTL; every waiter polls and one of them
  reclaims.
* **Worst case is duplicated work, never wrong results**: a holder paused
  longer than its TTL (GC pause, swap storm) can overlap with the reclaimer,
  but cells are deterministic and result-store writes are atomic, so both
  commit byte-identical payloads.

Timestamps are wall-clock (``time.time()``): the shared filesystem is the
only channel between workers on different machines, so deadlines must be
meaningful across hosts.  Keep clock skew well under the TTL
(``REPRO_LEASE_TTL_S``, default 30 s) — with NTP-disciplined clocks the
margin is four orders of magnitude.
"""

from __future__ import annotations

import json
import os
import secrets
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Set

from repro import settings
from repro.analysis.store import ResultStore, unique_tmp_path
from repro.obs.metrics import inc as metrics_inc
from repro.serve.chaos import active_chaos

#: Format tag inside lease documents (independent of the record format).
LEASE_FORMAT: int = 1


def default_owner_id() -> str:
    """A worker identity unique across hosts, processes, and restarts."""
    return f"{socket.gethostname()}-{os.getpid()}-{secrets.token_hex(2)}"


@dataclass(frozen=True)
class LeaseRecord:
    """One parsed lease file: who holds the key and until when."""

    key: str
    owner: str
    acquired_at: float
    deadline: float
    renewals: int = 0

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether the deadline has passed (no renewal arrived in time)."""
        return self.deadline < (time.time() if now is None else now)


class LeaseStore:
    """Claim, renew, release, and reclaim leases under one cache root.

    One instance per worker: it carries the worker's ``owner`` identity and
    TTL.  All mutation is by whole-file replacement (write temp, publish
    atomically), so readers never observe a torn document — and the one
    unavoidable torn state, a temp file caught before publication, is handled
    by the store's mtime+TTL grace rule, never by quarantine.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        owner: Optional[str] = None,
        ttl_s: Optional[float] = None,
    ) -> None:
        self.store = ResultStore(root)
        self.root = self.store.root
        self.owner = owner if owner is not None else default_owner_id()
        self.ttl_s = float(ttl_s) if ttl_s is not None else settings.get("REPRO_LEASE_TTL_S")
        #: Expired leases this owner reclaimed (surfaced by ``/stats``).
        self.reclaims = 0

    # -- paths / parsing -------------------------------------------------------

    def lease_path(self, key: str) -> str:
        """The lease file of a result-store key."""
        return self.store.lease_path_for(key)

    def peek(self, key: str) -> Optional[LeaseRecord]:
        """The current lease of a key, or ``None`` (absent or unreadable)."""
        return self._read(self.lease_path(key))

    @staticmethod
    def _read(path: str) -> Optional[LeaseRecord]:
        """Parse one lease file; any problem reads as ``None`` (never deletes)."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            return LeaseRecord(
                key=doc["key"],
                owner=doc["owner"],
                acquired_at=float(doc["acquired_at"]),
                deadline=float(doc["deadline"]),
                renewals=int(doc.get("renewals", 0)),
            )
        except (OSError, ValueError, TypeError, KeyError):
            return None

    def _document(self, key: str, now: float, renewals: int, acquired_at: float) -> bytes:
        """The serialized lease document for one (re)write."""
        doc = {
            "format": LEASE_FORMAT,
            "key": key,
            "owner": self.owner,
            "acquired_at": acquired_at,
            "deadline": now + self.ttl_s,
            "renewals": renewals,
        }
        return json.dumps(doc, sort_keys=True).encode("utf-8")

    # -- acquire ---------------------------------------------------------------

    def acquire(self, key: str) -> bool:
        """Try to claim a key; ``True`` iff this owner now holds its lease.

        Exactly one contender succeeds on a free key.  An expired lease (or
        an unreadable one older than the TTL) is reclaimed first — the
        reclaim itself is single-winner — and then re-contended.  ``False``
        means someone else holds a live lease (or just won the reclaim race);
        the caller polls the store and retries later.
        """
        path = self.lease_path(key)
        for _ in range(8):  # bounded: each loop either claims, loses, or reclaims
            if self._try_create(path, key):
                return True
            record = self._read(path)
            now = time.time()
            if record is not None:
                if record.owner == self.owner and not record.expired(now):
                    return True  # re-entrant: we already hold it
                if not record.expired(now):
                    return False
            else:
                # Unreadable or vanished.  Vanished: retry the create.  A
                # half-written document gets the mtime+TTL grace period —
                # its writer is alive until proven otherwise.
                try:
                    mtime = os.path.getmtime(path)
                except OSError:
                    continue
                if mtime + self.ttl_s >= now:
                    return False
            if not self._reclaim(path):
                return False  # another contender won the reclaim
        return False

    def _try_create(self, path: str, key: str) -> bool:
        """Atomically publish a fresh lease; ``False`` if the key is claimed.

        The document is fully written to a temp file first and published with
        ``os.link`` (atomic, fails if the target exists), so no reader ever
        sees a partial document under the lease name.  Filesystems without
        hard links fall back to ``O_CREAT | O_EXCL`` — still single-winner,
        with the (tiny) torn-write window covered by the grace rule.
        """
        now = time.time()
        blob = self._document(key, now, renewals=0, acquired_at=now)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = unique_tmp_path(path)
        try:
            with open(tmp, "wb") as fh:
                fh.write(blob)
            try:
                os.link(tmp, path)
                self._maybe_tear(path, key, blob)
                return True
            except FileExistsError:
                return False
            except OSError:
                # No hard-link support: exclusive create, then write.
                try:
                    fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    return False
                with os.fdopen(fd, "wb") as fh:
                    fh.write(blob)
                self._maybe_tear(path, key, blob)
                return True
        finally:
            try:
                os.remove(tmp)
            except OSError:
                pass

    def _maybe_tear(self, path: str, key: str, blob: bytes) -> None:
        """Chaos hook: maybe truncate the lease document we just published.

        Models a worker dying mid-publish on a filesystem without atomic
        hard-link semantics.  Drawn only after a *successful* create — lost
        creation races consume no draws, so the injected schedule is a pure
        function of which keys get claimed, not of race timing.  The torn
        document exercises the mtime+TTL grace rule: unreadable leases stay
        live until the grace lapses, then lose to a single-winner reclaim.
        (Our own renewals fail too — the heartbeat reports the key lost, and
        the idempotent result write keeps the duplicate harmless.)
        """
        chaos = active_chaos(self.root)
        if chaos is not None and chaos.torn_lease(key):
            try:
                with open(path, "wb") as fh:
                    fh.write(blob[: max(1, len(blob) // 3)])
            except OSError:
                pass

    def _reclaim(self, path: str) -> bool:
        """Remove an expired lease; ``True`` iff *this* contender removed it.

        The single-winner step: rename the corpse to a unique tombstone.  Of
        all contenders racing the same expired lease, exactly one rename
        succeeds; the losers return ``False`` and fall back to polling.  The
        tombstone is deleted immediately (and ``gc`` reaps any left behind by
        a reclaimer that crashed in between).
        """
        tomb = path + f".reclaim.{os.getpid()}.{secrets.token_hex(2)}"
        try:
            os.rename(path, tomb)
        except OSError:
            return False
        self.reclaims += 1
        metrics_inc("repro_lease_reclaims_total")
        try:
            os.remove(tomb)
        except OSError:
            pass
        return True

    # -- renew / release -------------------------------------------------------

    def renew(self, key: str) -> bool:
        """Extend our lease's deadline; ``False`` means the lease was lost.

        Only the current on-disk owner may renew.  A ``False`` return tells
        the heartbeat that the key was reclaimed from under us (we were
        paused past the TTL); the computation may finish anyway — its result
        write is idempotent — but the duplicate is counted, not hidden.
        """
        path = self.lease_path(key)
        record = self._read(path)
        if record is None or record.owner != self.owner:
            return False
        now = time.time()
        blob = self._document(
            key, now, renewals=record.renewals + 1, acquired_at=record.acquired_at
        )
        tmp = unique_tmp_path(path)
        try:
            with open(tmp, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
            return True
        except OSError:
            try:
                os.remove(tmp)
            except OSError:
                pass
            return False

    def release(self, key: str) -> bool:
        """Drop our lease on a key; ``True`` iff we held it and removed it."""
        path = self.lease_path(key)
        record = self._read(path)
        if record is None or record.owner != self.owner:
            return False
        try:
            os.remove(path)
        except OSError:
            return False
        return True


class LeaseHeartbeat:
    """A daemon thread renewing every active lease at a fraction of the TTL.

    Workers wrap each cell computation in :meth:`guard`, which registers the
    key for renewal and deregisters it when the computation ends.  Renewal
    failures (the lease was reclaimed while we were paused) are collected in
    :attr:`lost` so the drain loop can report duplicated work honestly.
    """

    def __init__(self, leases: LeaseStore, interval_s: Optional[float] = None) -> None:
        self.leases = leases
        #: Renew at TTL/3 by default: two missed beats still leave headroom.
        self.interval_s = (
            float(interval_s) if interval_s is not None else max(0.05, leases.ttl_s / 3.0)
        )
        self.lost: Set[str] = set()
        self._active: Set[str] = set()
        self._stalled: Set[str] = set()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        """Start the renewal thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="lease-heartbeat", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the renewal thread and wait for it to exit."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _run(self) -> None:
        """Renewal loop: beat every interval until stopped."""
        while not self._stop.wait(self.interval_s):
            self.beat()

    def beat(self) -> None:
        """Renew every active lease once (also callable inline from tests).

        Stalled keys (chaos-injected heartbeat failure) are skipped: their
        leases age toward expiry exactly as if this worker had frozen.
        """
        with self._lock:
            keys = [k for k in self._active if k not in self._stalled]
        for key in keys:
            if not self.leases.renew(key):
                with self._lock:
                    if key in self._active:  # still computing -> genuinely lost
                        self.lost.add(key)

    @contextmanager
    def guard(self, key: str, stall: bool = False) -> Iterator[None]:
        """Keep ``key``'s lease renewed for the duration of the block.

        With ``stall=True`` the key is registered but never renewed — the
        chaos engine's stalled-heartbeat fault.  One renewal is attempted at
        guard exit so a lease that expired (and was possibly reclaimed by a
        peer) is still reported in :attr:`lost` rather than silently dropped.
        """
        with self._lock:
            self._active.add(key)
            if stall:
                self._stalled.add(key)
        try:
            yield
        finally:
            with self._lock:
                self._active.discard(key)
                was_stalled = key in self._stalled
                self._stalled.discard(key)
            if was_stalled and not self.leases.renew(key):
                with self._lock:
                    self.lost.add(key)


def scan_leases(root: Optional[str] = None) -> Dict[str, int]:
    """Count live and expired leases under a cache root (for stats endpoints)."""
    store = ResultStore(root)
    stats = store.stats()
    return {"live": stats["leases_live"], "expired": stats["leases_expired"]}
