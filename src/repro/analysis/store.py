"""Content-addressed results store: cell-level caching for experiment grids.

Every paper figure/table is a grid of independent
:class:`~repro.analysis.runner.ExperimentSpec` cells, and a cell's payload is
a pure function of its spec (see the determinism notes in
:mod:`repro.analysis.runner`).  That makes cell results *content-addressable*:
this module keys each record by the SHA-256 of a canonical JSON encoding of
the spec — kind, benchmark, scale, seed, fast/reference flag, and every
kind-specific parameter — plus the code version, and persists the payload as
one small JSON file under the cache root.

Consequences the rest of the system builds on:

* **Cache hits skip computation** — re-running any figure/table with a warm
  cache does zero cell computations (the :class:`~repro.analysis.runner.
  ExperimentEngine` consults the store before dispatching cells, unless
  ``force=True``).
* **Resume mid-grid** — an interrupted sweep leaves its finished cells behind;
  the next invocation recomputes only the missing ones.
* **Bit-reproducibility** — payloads are plain JSON values (dicts/lists of
  numbers, strings, bools), and Python's JSON round-trip is exact for floats,
  so a cached result is bit-identical to a fresh one for the same spec.
* **Safe invalidation** — records embed the code version used to produce
  them; a version bump makes old keys unreachable, and ``repro cache gc``
  reclaims them.  Corrupted records (truncated writes, bad JSON) are treated
  as misses and quarantined (deleted) on first read.

The cache root defaults to ``.repro_cache/`` in the current directory and can
be overridden with the ``REPRO_CACHE_DIR`` environment variable or the CLI's
``--cache-dir`` flag (see the Configuration section of the README).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro import settings
from repro.analysis.runner import ExperimentSpec

# Shared with the compiled-graph store: one version scheme.
from repro.runtime.compiled import code_version
from repro.util import durable

#: Bump when the record layout changes (distinct from the code version, which
#: tracks the *semantics* of cell functions).
RECORD_FORMAT: int = 1

#: Lease records (sweep-service cell claims, :mod:`repro.serve.leases`) live
#: *next to* their result record but in their own suffix namespace, so the
#: record machinery — ``records()``, ``ls``, quarantine — never mistakes a
#: live lease (or a half-written one) for a corrupted result and deletes it.
#: Only ``stats``/``gc``/``clear`` know about them, and only to count them
#: separately (and to reap the expired ones).
LEASE_SUFFIX: str = ".lease"

#: Attempt markers (``<key>.attempt.<n>``) are the crash-persistent retry
#: ledger of a cell: each computation attempt first claims the lowest free
#: ordinal with a single-winner create, so attempt indices are globally unique
#: across workers, processes, and restarts — which is also what keys the
#: chaos engine's per-attempt fault draws (a kill injected at attempt ``n``
#: never re-fires, because the restarted worker claims ``n+1``).
ATTEMPT_INFIX: str = ".attempt."

#: A poison tombstone (``<key>.poison``) marks a cell that exhausted its
#: attempt budget; write-once, carries the exception chain of every failed
#: attempt.  Workers refuse poisoned cells and jobs over them fail fast.
POISON_SUFFIX: str = ".poison"


def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to canonical JSON-encodable data, deterministically.

    Handles the value types that appear in spec parameters: plain scalars,
    tuples/lists, dicts, and (frozen) dataclasses such as
    :class:`~repro.faults.rates.FitRateSpec`, which are tagged with their
    class name so different spec types can never collide.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {f.name: _canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        return {"__dataclass__": type(obj).__name__, **fields}
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"spec parameter of unsupported type {type(obj).__name__}: {obj!r}")


def spec_to_dict(spec: ExperimentSpec) -> Dict[str, Any]:
    """The canonical JSON-encodable form of a spec (what gets hashed)."""
    return {
        "kind": spec.kind,
        "benchmark": spec.benchmark,
        "scale": spec.scale,
        "seed": spec.seed,
        "fast": spec.fast,
        "params": _canonical(dict(spec.params)),
    }


def spec_key(spec: ExperimentSpec, version: Optional[str] = None) -> str:
    """Content hash of a spec: SHA-256 hex over canonical JSON + code version.

    Stable across processes, platforms, and Python hash randomisation — the
    encoding is explicit canonical JSON with sorted keys, never ``repr`` or
    ``hash``.  Two specs share a key iff they are the same experiment run by
    the same code, which is exactly when their payloads are interchangeable.
    """
    payload = {
        "format": RECORD_FORMAT,
        "code_version": version if version is not None else code_version(),
        "spec": spec_to_dict(spec),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class StoreRecord:
    """One persisted cell: its key, spec snapshot, payload, and provenance."""

    key: str
    spec: Dict[str, Any]
    payload: Any
    code_version: str
    created_at: float
    elapsed_s: Optional[float] = None

    def to_json(self) -> Dict[str, Any]:
        """The JSON document written to disk."""
        return {
            "format": RECORD_FORMAT,
            "key": self.key,
            "spec": self.spec,
            "payload": self.payload,
            "code_version": self.code_version,
            "created_at": self.created_at,
            "elapsed_s": self.elapsed_s,
        }


class ResultStore:
    """A directory of content-addressed cell records.

    Records live two levels deep (``<root>/<key[:2]>/<key>.json``) so even
    very large sweeps keep directory listings manageable.  Every write goes
    through :mod:`repro.util.durable`, so no reader sees a partial record.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        if root is None:
            root = settings.get("REPRO_CACHE_DIR")
        self.root = os.path.abspath(root)

    # -- paths ----------------------------------------------------------------

    def path_for(self, key: str) -> str:
        """The record file of a key."""
        return os.path.join(self.root, key[:2], key + ".json")

    def lease_path_for(self, key: str) -> str:
        """The lease file of a key (``<root>/<key[:2]>/<key>.lease``).

        Same shard directory as the result record so a worker's claim and its
        eventual result live side by side, but a distinct suffix so nothing in
        the record machinery ever parses — or quarantines — a lease.
        """
        return os.path.join(self.root, key[:2], key + LEASE_SUFFIX)

    def attempt_path_for(self, key: str, n: int) -> str:
        """The marker file of a cell's ``n``-th computation attempt."""
        return os.path.join(self.root, key[:2], f"{key}{ATTEMPT_INFIX}{n}")

    def poison_path_for(self, key: str) -> str:
        """The quarantine tombstone of a cell that exhausted its attempts."""
        return os.path.join(self.root, key[:2], key + POISON_SUFFIX)

    def key(self, spec: ExperimentSpec) -> str:
        """The content hash of a spec (see :func:`spec_key`)."""
        return spec_key(spec)

    # -- read -----------------------------------------------------------------

    def get(self, spec: ExperimentSpec) -> Optional[StoreRecord]:
        """The record of a spec, or ``None`` on miss.

        A record that cannot be parsed, or whose key field disagrees with its
        file name (a torn or tampered write), is quarantined: deleted and
        reported as a miss, so the cell is simply recomputed.
        """
        key = self.key(spec)
        record = self._load(self.path_for(key))
        if record is None or record.key != key:
            if record is not None:
                durable.remove(self.path_for(key))
            return None
        return record

    def contains(self, spec: ExperimentSpec) -> bool:
        """Whether a valid record exists for a spec."""
        return self.get(spec) is not None

    def _load(self, path: str) -> Optional[StoreRecord]:
        """Parse one record file; malformed content is quarantined.

        Only *content* problems (bad JSON, missing fields) delete the file; a
        transient I/O error (fd exhaustion, a momentary lock) is reported as a
        miss but leaves the record on disk for the next read.
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            return None
        except ValueError:  # bad JSON — the record itself is broken
            durable.remove(path)
            return None
        except OSError:  # transient read failure — the record may be fine
            return None
        try:
            return StoreRecord(
                key=doc["key"],
                spec=doc["spec"],
                payload=doc["payload"],
                code_version=doc["code_version"],
                created_at=doc["created_at"],
                elapsed_s=doc.get("elapsed_s"),
            )
        except (KeyError, TypeError):  # parseable JSON, wrong shape
            durable.remove(path)
            return None

    # -- write ----------------------------------------------------------------

    def _chaos(self):
        """The active chaos engine for this root, or ``None`` (the norm).

        Imported lazily — :mod:`repro.serve.chaos` sits a layer above the
        store, and only chaos runs pay for the import at all.
        """
        try:
            from repro.serve.chaos import active_chaos
        except ImportError:  # pragma: no cover - serve layer absent
            return None
        return active_chaos(self.root)

    def put(
        self, spec: ExperimentSpec, payload: Any, elapsed_s: Optional[float] = None
    ) -> StoreRecord:
        """Persist one computed cell and return its record.

        The record is staged and then moved into place, so a reader never
        sees a half-written one.  Injected store-write chaos therefore fails
        *inside* the staged write (a torn temp file plus an EIO, the shape of
        a failed write), never after the move: the published namespace stays
        atomic under fault injection, and the caller's bounded retry simply
        writes again.
        """
        key = self.key(spec)
        record = StoreRecord(
            key=key,
            spec=spec_to_dict(spec),
            payload=payload,
            code_version=code_version(),
            created_at=time.time(),
            elapsed_s=elapsed_s,
        )
        blob = json.dumps(record.to_json())
        chaos = self._chaos()
        with durable.staged(self.path_for(key)) as tmp:
            with open(tmp, "w", encoding="utf-8") as fh:
                if chaos is not None and chaos.store_put_fails(key):
                    from repro.serve.chaos import ChaosInjectedIOError

                    fh.write(blob[:64])
                    raise ChaosInjectedIOError(f"injected EIO writing record {key[:12]}")
                fh.write(blob)
            if chaos is not None:
                chaos.rename_delay(key)
        return record

    # -- attempt registry & poison quarantine ----------------------------------

    def claim_attempt(self, key: str, owner: str, budget: Optional[int] = None) -> Optional[int]:
        """Claim the next attempt ordinal for a cell, or ``None`` if exhausted.

        A single-winner create of ``<key>.attempt.<n>`` makes each ordinal
        unique across every worker process, and the markers persist across
        crashes — a worker killed mid-attempt leaves its marker behind, so the
        attempt still counts against the budget (a crash-looping cell cannot
        retry forever).  ``None`` means only that the budget is spent; an I/O
        error raises, so it can never poison a cell that did not run.
        """
        if budget is None:
            budget = settings.get("REPRO_CELL_ATTEMPTS")
        doc = {"key": key, "owner": owner, "started_at": time.time()}
        for n in range(budget):
            if durable.create_once(
                self.attempt_path_for(key, n), json.dumps({**doc, "attempt": n})
            ):
                return n
        return None

    def record_attempt_failure(self, key: str, n: int, error: str) -> None:
        """Attach the failure reason to an attempt marker (atomic rewrite)."""
        path = self.attempt_path_for(key, n)
        doc: Dict[str, Any] = {"key": key, "attempt": n}
        doc.update(durable.read_json(path) or {})
        doc["error"] = error
        doc["failed_at"] = time.time()
        try:
            durable.publish(path, json.dumps(doc))
        except OSError:  # best effort: the marker's existence is what counts
            pass

    def attempts(self, key: str) -> List[Dict[str, Any]]:
        """Every attempt marker of a cell, in attempt order."""
        out: List[Dict[str, Any]] = []
        shard_dir = os.path.join(self.root, key[:2])
        prefix = key + ATTEMPT_INFIX
        try:
            names = os.listdir(shard_dir)
        except OSError:
            return out
        for name in names:
            if not name.startswith(prefix):
                continue
            try:
                n = int(name[len(prefix):])
            except ValueError:
                continue
            doc: Dict[str, Any] = {"key": key, "attempt": n}
            doc.update(durable.read_json(os.path.join(shard_dir, name)) or {})
            out.append(doc)
        out.sort(key=lambda d: d["attempt"])
        return out

    def clear_attempts(self, key: str) -> None:
        """Drop a cell's attempt markers (after its record is published).

        Safe even with concurrent claimants: every worker re-checks the store
        under its lease before computing, so a cleared ledger is only ever
        followed by cache hits, never by a fresh attempt.
        """
        for doc in self.attempts(key):
            durable.remove(self.attempt_path_for(key, doc["attempt"]))

    def write_poison(self, key: str, doc: Dict[str, Any]) -> bool:
        """Publish a cell's quarantine tombstone (write-once, single winner)."""
        payload = {"key": key, "code_version": code_version(), "created_at": time.time()}
        payload.update(doc)
        return durable.create_once(self.poison_path_for(key), json.dumps(payload))

    def read_poison(self, key: str) -> Optional[Dict[str, Any]]:
        """A cell's quarantine tombstone, or ``None`` if it is not poisoned."""
        return durable.read_json(self.poison_path_for(key))

    # -- maintenance -----------------------------------------------------------

    def records(self) -> Iterator[StoreRecord]:
        """Iterate every valid record in the store (corrupt ones are skipped)."""
        for path in self._record_paths():
            record = self._load(path)
            if record is not None:
                yield record

    def _record_paths(self) -> List[str]:
        """Every record file currently on disk, in stable (sharded) order."""
        paths: List[str] = []
        if not os.path.isdir(self.root):
            return paths
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json"):
                    paths.append(os.path.join(shard_dir, name))
        return paths

    def _lease_paths(self) -> List[str]:
        """Every lease file currently on disk, in stable (sharded) order."""
        return self._suffix_paths(lambda name: name.endswith(LEASE_SUFFIX))

    def _suffix_paths(self, match) -> List[str]:
        """Shard-ordered paths of every file whose name satisfies ``match``."""
        paths: List[str] = []
        if not os.path.isdir(self.root):
            return paths
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if match(name):
                    paths.append(os.path.join(shard_dir, name))
        return paths

    def _worker_liveness_paths(self) -> List[str]:
        """Worker liveness files (``<root>/serve/workers/*.json``)."""
        workers_dir = os.path.join(self.root, "serve", "workers")
        try:
            names = sorted(os.listdir(workers_dir))
        except OSError:
            return []
        return [
            os.path.join(workers_dir, name)
            for name in names
            if name.endswith(".json")
        ]

    def _lease_expired(self, path: str, now: Optional[float] = None) -> Optional[bool]:
        """Whether the lease at ``path`` has expired; ``None`` if it vanished.

        A lease that cannot be parsed (a half-written acquire caught
        mid-flight) is **not** corruption: it is treated as live until its
        file mtime plus the configured TTL has passed, then as expired.  This
        is what keeps ``gc`` from ever deleting a claim a worker is about to
        finish writing.
        """
        if now is None:
            now = time.time()
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            deadline = float(doc["deadline"])
        except (FileNotFoundError,):
            return None
        except (OSError, ValueError, TypeError, KeyError):
            try:
                return os.path.getmtime(path) + settings.get("REPRO_LEASE_TTL_S") < now
            except OSError:
                return None
        return deadline < now

    def ls(self) -> List[Dict[str, Any]]:
        """One summary dict per record (for ``repro cache ls``)."""
        rows: List[Dict[str, Any]] = []
        for record in self.records():
            spec = record.spec
            rows.append(
                {
                    "key": record.key[:12],
                    "kind": spec.get("kind", "?"),
                    "benchmark": spec.get("benchmark", "?"),
                    "scale": spec.get("scale", "?"),
                    "seed": spec.get("seed", "?"),
                    "fast": spec.get("fast", "?"),
                    "code_version": record.code_version,
                    "created_at": record.created_at,
                    "elapsed_s": record.elapsed_s,
                }
            )
        return rows

    def stats(self) -> Dict[str, Any]:
        """Aggregate store statistics (record count, bytes, versions, leases).

        Leases are counted in their own buckets (live vs expired), never as
        records — a sweep-service drain in flight shows up here as a handful
        of live leases, not as store corruption.
        """
        paths = self._record_paths()
        n_bytes = 0
        versions: Dict[str, int] = {}
        n_records = 0
        for path in paths:
            try:
                n_bytes += os.path.getsize(path)
            except OSError:
                continue
            record = self._load(path)
            if record is None:
                continue
            n_records += 1
            versions[record.code_version] = versions.get(record.code_version, 0) + 1
        leases_live = 0
        leases_expired = 0
        now = time.time()
        for path in self._lease_paths():
            expired = self._lease_expired(path, now)
            if expired is None:
                continue
            if expired:
                leases_expired += 1
            else:
                leases_live += 1
        attempts = len(
            self._suffix_paths(lambda n: ATTEMPT_INFIX in n and not durable.is_temp(n))
        )
        poisoned = len(self._suffix_paths(lambda n: n.endswith(POISON_SUFFIX)))
        return {
            "root": self.root,
            "records": n_records,
            "bytes": n_bytes,
            "code_versions": versions,
            "leases_live": leases_live,
            "leases_expired": leases_expired,
            "attempts": attempts,
            "poisoned": poisoned,
        }

    def gc(self, stale_worker_age_s: Optional[float] = None) -> Dict[str, int]:
        """Drop stale records: wrong code version, corrupt files, orphan temps.

        Returns counts of what was removed.  Records written by the *current*
        code version are untouched, so ``gc`` after an upgrade reclaims
        exactly the unreachable generation.  Lease files are handled in their
        own namespace: expired ones (including reclaim tombstones left by a
        crashed reclaimer) are reaped and counted as ``lease_expired``, live
        ones are counted as ``lease_live`` and **never** touched — a lease is
        a claim, not a record, so it can never be "corrupt".

        The retry/quarantine ledger is swept too: attempt markers whose cell
        already has a published record are spent history (``attempts``), and
        poison tombstones from an older code version no longer poison
        anything (``poison_stale``) — a version bump un-quarantines a cell,
        since new code may well succeed where the old code failed.

        Worker liveness files older than ``stale_worker_age_s`` (default
        three lease TTLs) are removed and counted as ``workers_stale`` — a
        SIGKILLed worker never deletes its own liveness file, and without
        this sweep ``/health`` would count the corpse as a worker forever.
        """
        current = code_version()
        removed_stale = 0
        removed_corrupt = 0
        removed_tmp = 0
        lease_live = 0
        lease_expired = 0
        removed_attempts = 0
        poison_stale = 0
        workers_stale = 0
        empty = {
            "stale": 0, "corrupt": 0, "tmp": 0, "lease_live": 0,
            "lease_expired": 0, "attempts": 0, "poison_stale": 0,
            "workers_stale": 0,
        }
        if not os.path.isdir(self.root):
            return empty
        now = time.time()
        if stale_worker_age_s is None:
            stale_worker_age_s = 3.0 * settings.get("REPRO_LEASE_TTL_S")
        for path in self._worker_liveness_paths():
            try:
                stale = os.path.getmtime(path) + stale_worker_age_s < now
            except OSError:
                continue
            if stale and durable.remove(path):
                workers_stale += 1
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                path = os.path.join(shard_dir, name)
                if ".reclaim." in name:
                    # A reclaim tombstone survives only if the reclaiming
                    # worker crashed between rename and unlink; always stale.
                    durable.remove(path)
                    lease_expired += 1
                    continue
                if name.endswith(LEASE_SUFFIX):
                    expired = self._lease_expired(path, now)
                    if expired:
                        durable.remove(path)
                        lease_expired += 1
                    elif expired is not None:
                        lease_live += 1
                    continue
                if durable.is_temp(name):
                    durable.remove(path)
                    removed_tmp += 1
                    continue
                if ATTEMPT_INFIX in name:
                    key = name.split(ATTEMPT_INFIX, 1)[0]
                    if os.path.exists(os.path.join(shard_dir, key + ".json")):
                        durable.remove(path)
                        removed_attempts += 1
                    continue
                if name.endswith(POISON_SUFFIX):
                    doc = durable.read_json(path) or {}
                    if doc.get("code_version") != current:
                        durable.remove(path)
                        poison_stale += 1
                    continue
                if not name.endswith(".json"):
                    continue
                record = self._load(path)
                if record is None:
                    # _load only deletes on *content* corruption; a transient
                    # read error leaves the file behind and is not a removal.
                    if not os.path.exists(path):
                        removed_corrupt += 1
                    continue
                if record.code_version != current:
                    durable.remove(path)
                    removed_stale += 1
            if not os.listdir(shard_dir):
                try:
                    os.rmdir(shard_dir)
                except OSError:
                    pass
        return {
            "stale": removed_stale,
            "corrupt": removed_corrupt,
            "tmp": removed_tmp,
            "lease_live": lease_live,
            "lease_expired": lease_expired,
            "attempts": removed_attempts,
            "poison_stale": poison_stale,
            "workers_stale": workers_stale,
        }

    def clear(self) -> int:
        """Delete every record (the root directory itself is kept).

        Returns the number of *records* removed; lease files are removed too
        (a cleared store has nothing left to claim) but not counted.
        """
        removed = 0
        for path in self._record_paths():
            durable.remove(path)
            removed += 1
        for path in self._lease_paths():
            durable.remove(path)
        for path in self._suffix_paths(
            lambda n: ATTEMPT_INFIX in n or n.endswith(POISON_SUFFIX)
        ):
            durable.remove(path)
        if os.path.isdir(self.root):
            for shard in os.listdir(self.root):
                shard_dir = os.path.join(self.root, shard)
                if os.path.isdir(shard_dir) and not os.listdir(shard_dir):
                    try:
                        os.rmdir(shard_dir)
                    except OSError:
                        pass
        return removed
