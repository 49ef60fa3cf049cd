"""Deterministic, replayable fault injection for the sweep service.

The simulated fault plane (PR 5) draws every fault from a stream keyed by
*what* is failing, never by *when* — this module turns the same discipline
on the serving stack itself.  A **chaos profile** is a spec string in the
workload grammar style (``profile:key=value,...``, canonicalised the same
way), selected via the ``REPRO_CHAOS`` environment variable::

    REPRO_CHAOS="light:seed=7,p_kill=0.1" repro serve --workers 2

Every injection decision is a pure function of ``(seed, site, key, n)`` —
``site`` names the boundary (``kill``, ``store_put_io``, ``lease_torn``,
``stall``, ``slow``, ``cell_fail``, ``http``), ``key`` is the result-store
key (or URL path) under attack, and ``n`` is a per-``(site, key)`` ordinal:
the cell's on-disk attempt index where one exists, otherwise a counter.
Two runs with the same profile over the same grid therefore inject the
same fault multiset, regardless of thread/process scheduling — which is
what lets CI assert "this chaos schedule completed with byte-identical
artifacts" and re-run it.

Injected faults and the machinery that must survive them:

============== ==================================== ===========================
site           what is injected                      what must absorb it
============== ==================================== ===========================
``lease_torn``  a lease published half-written       mtime+TTL grace, reclaim
``store_put_io`` EIO/ENOSPC mid-record-write         bounded retry, attempt
                                                     budget, quarantine
``rename_delay`` a stalled ``os.replace``            atomic publication
``stall``       heartbeat stops renewing one lease   expiry, single-winner
                                                     reclaim, duplicate count
``slow``        a cell that dawdles                  lease renewal under guard
``kill``        worker death at a cell boundary      supervisor restart,
                                                     lease expiry, attempts
``cell_fail``   the cell computation raises          retry budget, poison
                                                     tombstone, ``failed`` job
``http``        5xx / connection reset from the      client retry/backoff
                frontend
============== ==================================== ===========================

Every injection is appended (single atomic line) to
``<cache root>/serve/chaos/injected.jsonl`` so a chaos run leaves a
replayable fault log; :func:`injected_multiset` reads it back as the
order-free ``(site, key, n)`` set the soak harness compares across runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro import settings

#: Where injections are journalled, under the cache root.
CHAOS_SUBDIR = os.path.join("serve", "chaos")
CHAOS_LOG_NAME = "injected.jsonl"


class ChaosInjectedIOError(OSError):
    """An injected EIO/ENOSPC-style store-write failure (retryable)."""


class ChaosInjectedCellError(RuntimeError):
    """An injected cell-computation failure (consumes one retry attempt)."""


class WorkerKilled(BaseException):
    """Simulated ``kill -9`` of a worker thread.

    Deliberately a ``BaseException``: it must sail through every
    ``except Exception`` on the way out — a killed worker runs *no* cleanup,
    releases *no* leases, and removes *no* liveness file, exactly like a real
    SIGKILL.  Worker processes (``repro serve --worker``) take the real
    signal instead; thread workers raise this and the supervisor restarts
    them.
    """


#: Profile parameters: name -> (type, default, doc).  All probabilities are
#: per *draw* (one decision at one (site, key, n)), not per second.
_PARAMS: Dict[str, Tuple[type, Any, str]] = {
    "seed": (int, 0, "root seed of the keyed injection draws"),
    "p_torn_lease": (float, 0.0, "P(truncate a just-published lease document)"),
    "p_io": (float, 0.0, "P(EIO mid result-record write)"),
    "p_rename_delay": (float, 0.0, "P(delay a record's atomic rename)"),
    "rename_delay_ms": (float, 20.0, "rename delay magnitude"),
    "p_stall": (float, 0.0, "P(heartbeat stops renewing one cell's lease)"),
    "p_slow": (float, 0.0, "P(a cell computation dawdles)"),
    "slow_ms": (float, 50.0, "slow-cell sleep magnitude"),
    "p_kill": (float, 0.0, "P(worker dies at a cell-start boundary)"),
    "max_kills": (int, -1, "total kill budget per run (-1 = unlimited)"),
    "p_cell_fail": (float, 0.0, "P(a cell attempt raises)"),
    "p_http": (float, 0.0, "P(frontend answers 5xx or resets the connection)"),
}

#: Named profiles (overrides over the all-zero defaults).  ``off`` exists so
#: ``REPRO_CHAOS=off`` is an explicit, greppable no-op.
PROFILES: Dict[str, Dict[str, Any]] = {
    "off": {},
    "light": {
        "p_torn_lease": 0.05,
        "p_io": 0.05,
        "p_rename_delay": 0.05,
        "p_stall": 0.05,
        "p_slow": 0.10,
        "p_kill": 0.02,
    },
    "heavy": {
        "p_torn_lease": 0.15,
        "p_io": 0.15,
        "p_rename_delay": 0.10,
        "p_stall": 0.10,
        "p_slow": 0.20,
        "slow_ms": 100.0,
        "p_kill": 0.08,
    },
}


@dataclass(frozen=True)
class ChaosProfile:
    """One fully resolved chaos profile: name plus every parameter value."""

    name: str
    params: Tuple[Tuple[str, Any], ...]

    def param(self, name: str) -> Any:
        """Look up one parameter value."""
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    @property
    def canonical(self) -> str:
        """The canonical spec string (defaults filled, sorted, repr-rendered).

        Two spellings of the same chaos schedule canonicalise identically —
        the same trick :mod:`repro.workloads.spec` plays with benchmark
        names, so a chaos run's identity is one unambiguous string.
        """
        rendered = ",".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.name}:{rendered}"

    @property
    def active(self) -> bool:
        """Whether any fault has non-zero probability."""
        return any(
            k.startswith("p_") and v > 0.0 for k, v in self.params
        )


def parse_chaos(text: str) -> ChaosProfile:
    """Parse (and canonicalise) a chaos spec string.

    Raises ``KeyError`` for an unknown profile and ``ValueError`` for bad
    parameters — a misconfigured ``REPRO_CHAOS`` must fail loudly, not
    silently run without chaos.
    """
    text = text.strip()
    name, _, rest = text.partition(":")
    if name not in PROFILES:
        raise KeyError(
            f"unknown chaos profile {name!r}; known: {', '.join(PROFILES)}"
        )
    values: Dict[str, Any] = {k: default for k, (_, default, _) in _PARAMS.items()}
    values.update(PROFILES[name])
    if rest:
        for item in rest.split(","):
            pname, eq, raw = item.partition("=")
            pname = pname.strip()
            if not eq or not pname:
                raise ValueError(f"malformed chaos parameter {item!r} in {text!r}")
            if pname not in _PARAMS:
                raise ValueError(
                    f"unknown chaos parameter {pname!r}; known: {', '.join(_PARAMS)}"
                )
            kind = _PARAMS[pname][0]
            try:
                value = kind(raw.strip())
            except (TypeError, ValueError):
                raise ValueError(
                    f"chaos parameter {pname}={raw!r} is not a valid {kind.__name__}"
                )
            if pname.startswith("p_") and not 0.0 <= value <= 1.0:
                raise ValueError(f"chaos probability {pname}={value} not in [0, 1]")
            values[pname] = value
    return ChaosProfile(name=name, params=tuple(sorted(values.items())))


def _keyed_uniform(seed: int, site: str, key: str, n: int) -> float:
    """A uniform [0, 1) draw keyed by (seed, site, key, n) — never by time."""
    blob = f"{seed}|{site}|{key}|{n}".encode("utf-8")
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


class ChaosEngine:
    """Injects one profile's faults, deterministically, under one cache root.

    Per-``(site, key)`` ordinal counters make repeated decisions at the same
    boundary draw distinct (but replayable) uniforms; where a durable ordinal
    exists — the cell's on-disk attempt index — callers pass it explicitly so
    the schedule survives process restarts too.
    """

    def __init__(self, profile: ChaosProfile, root: Optional[str] = None) -> None:
        self.profile = profile
        self.root = os.path.abspath(root) if root else None
        self.seed = int(profile.param("seed"))
        self._counters: Dict[Tuple[str, str], int] = {}
        self._lock = threading.Lock()
        self._kills = 0
        #: Injection counts per site (cheap observability for /stats).
        self.injected: Dict[str, int] = {}

    # -- draw machinery --------------------------------------------------------

    def uniform(self, site: str, key: str, n: int) -> float:
        """The keyed uniform for one decision (exposed for tests)."""
        return _keyed_uniform(self.seed, site, key, n)

    def _next(self, site: str, key: str) -> int:
        """Claim the next ordinal for a (site, key) pair."""
        with self._lock:
            n = self._counters.get((site, key), 0)
            self._counters[(site, key)] = n + 1
            return n

    def _hit(self, site: str, key: str, p: float, n: Optional[int] = None) -> Optional[int]:
        """One decision: returns the ordinal when the fault fires, else None."""
        if p <= 0.0:
            return None
        if n is None:
            n = self._next(site, key)
        if self.uniform(site, key, n) >= p:
            return None
        self._log(site, key, n)
        return n

    def _log(self, site: str, key: str, n: int) -> None:
        """Record one injection (atomic single-line append) and count it."""
        with self._lock:
            self.injected[site] = self.injected.get(site, 0) + 1
        try:
            from repro.obs.metrics import inc as _metrics_inc

            _metrics_inc("repro_chaos_injections_total", site=site)
        except ImportError:  # pragma: no cover - metrics layer absent
            pass
        if self.root is None:
            return
        line = json.dumps(
            {"site": site, "key": key, "n": n, "pid": os.getpid(), "t": time.time()},
            sort_keys=True,
        )
        path = os.path.join(self.root, CHAOS_SUBDIR, CHAOS_LOG_NAME)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
        except OSError:  # pragma: no cover - the log is observability only
            pass

    # -- boundary hooks --------------------------------------------------------

    def torn_lease(self, key: str) -> bool:
        """Whether to truncate the lease document just published for ``key``."""
        return self._hit("lease_torn", key, self.profile.param("p_torn_lease")) is not None

    def store_put_fails(self, key: str) -> bool:
        """Whether this record write dies with an injected EIO."""
        return self._hit("store_put_io", key, self.profile.param("p_io")) is not None

    def rename_delay(self, key: str) -> None:
        """Maybe stall before the record's atomic rename."""
        if self._hit("rename_delay", key, self.profile.param("p_rename_delay")) is not None:
            time.sleep(self.profile.param("rename_delay_ms") / 1000.0)

    def stall_heartbeat(self, key: str, attempt: int) -> bool:
        """Whether the heartbeat abandons this cell's lease (forced expiry)."""
        return self._hit("stall", key, self.profile.param("p_stall"), n=attempt) is not None

    def slow_cell(self, key: str, attempt: int) -> None:
        """Maybe dawdle at the start of a cell computation."""
        if self._hit("slow", key, self.profile.param("p_slow"), n=attempt) is not None:
            time.sleep(self.profile.param("slow_ms") / 1000.0)

    def cell_fails(self, key: str, attempt: int) -> bool:
        """Whether this cell attempt raises an injected exception."""
        return self._hit("cell_fail", key, self.profile.param("p_cell_fail"), n=attempt) is not None

    def maybe_kill(self, key: str, attempt: int, hard: bool = False) -> None:
        """Maybe die at a cell-start boundary.

        ``hard=True`` (worker *processes*) delivers a genuine ``SIGKILL`` —
        the injection is logged first, then nothing else runs.  Thread
        workers raise :class:`WorkerKilled` instead, which skips lease
        release and liveness cleanup on its way out (the closest a thread
        can come to ``kill -9``) and lets the supervisor restart them.
        """
        p = self.profile.param("p_kill")
        if p <= 0.0:
            return
        budget = int(self.profile.param("max_kills"))
        with self._lock:
            if 0 <= budget <= self._kills:
                return
        if self._hit("kill", key, p, n=attempt) is None:
            return
        with self._lock:
            self._kills += 1
        if hard:
            os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover - dies here
        raise WorkerKilled(f"chaos kill at cell {key[:12]} attempt {attempt}")

    def http_failure(self, route: str) -> Optional[int]:
        """Whether (and how) to sabotage one HTTP request.

        Returns the draw ordinal on a hit — callers alternate 5xx and
        connection-reset on its parity — or ``None`` to serve normally.
        """
        return self._hit("http", route, self.profile.param("p_http"))


# ---------------------------------------------------------------------------------
# process-wide activation (one engine per (profile, cache root))
# ---------------------------------------------------------------------------------

_engines: Dict[Tuple[str, str], ChaosEngine] = {}
_engines_lock = threading.Lock()


def active_chaos(root: Optional[str] = None) -> Optional[ChaosEngine]:
    """The process's chaos engine for a cache root, or ``None`` (no chaos).

    Activation is purely environmental (``REPRO_CHAOS``), so worker
    subprocesses inherit the exact schedule from their parent.  Engines are
    cached per (canonical profile, root): counters are shared by every
    thread in the process, and a fresh root — each soak phase uses one —
    gets fresh counters, which is what makes replay comparisons exact.
    """
    text = settings.get("REPRO_CHAOS")
    if text is None:
        return None
    profile = parse_chaos(text)
    if not profile.active:
        return None
    if root is None:
        root = settings.get("REPRO_CACHE_DIR")
    cache_key = (profile.canonical, os.path.abspath(root))
    with _engines_lock:
        engine = _engines.get(cache_key)
        if engine is None:
            engine = ChaosEngine(profile, root=root)
            _engines[cache_key] = engine
        return engine


def read_injected_log(root: str) -> List[Dict[str, Any]]:
    """Every injection journalled under a cache root (order of appearance)."""
    path = os.path.join(os.path.abspath(root), CHAOS_SUBDIR, CHAOS_LOG_NAME)
    events: List[Dict[str, Any]] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                if not line.endswith("\n"):
                    continue
                try:
                    events.append(json.loads(line))
                except ValueError:  # pragma: no cover - torn tail line
                    continue
    except OSError:
        pass
    return events


def injected_multiset(root: str) -> List[Tuple[str, str, int]]:
    """The order-free injection schedule of a run: sorted (site, key, n).

    Duplicates are collapsed: when two workers race the same decision (both
    redo a reclaimed cell, say) each logs the same keyed draw, and the
    *schedule* — which faults fired where — is identical either way.
    """
    return sorted(
        {(e["site"], e["key"], int(e["n"])) for e in read_injected_log(root)}
    )
