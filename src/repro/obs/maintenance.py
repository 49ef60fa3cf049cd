"""Maintenance of the ``obs/`` namespace: sizes, garbage collection, clear.

The tracing journal and the per-worker metrics snapshots are append-only
observability artifacts under ``<cache root>/obs/``.  Rotation (see
``REPRO_TRACE_MAX_BYTES``) caps the *live* journal, but the
rotated segments and the snapshots of long-dead workers still accumulate —
this module gives ``repro cache stats|gc|clear`` the same authority over
``obs/`` that the result and compiled-graph stores already have over theirs.

Policy:

* ``stats`` — counts and byte totals of the live journal, rotated segments,
  and metrics snapshots (surfaced by ``repro cache stats``).
* ``gc`` — removes *all* rotated trace segments (they exist precisely because
  the journal exceeded its budget; the live journal is never touched) and
  metrics snapshots older than the max age (a stale snapshot's worker is
  gone — keeping it would double-count its final counters forever).
* ``clear`` — removes the live journal, every rotated segment, and every
  metrics snapshot.

Everything here is observation-only bookkeeping: removing any of these files
never affects results, store keys, or artifacts.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.obs.metrics import METRICS_SUBDIR
from repro.obs.trace import OBS_SUBDIR, ROTATED_TRACE_PREFIX, TRACE_LOG_NAME


def obs_dir(root: str) -> str:
    """The ``obs/`` namespace of a cache root."""
    return os.path.join(os.path.abspath(root), OBS_SUBDIR)


def rotated_trace_segments(root: str) -> List[str]:
    """Paths of rotated trace segments, oldest first (names embed the epoch)."""
    base = obs_dir(root)
    try:
        names = os.listdir(base)
    except OSError:
        return []
    return sorted(
        os.path.join(base, name)
        for name in names
        if name.startswith(ROTATED_TRACE_PREFIX) and name.endswith(".jsonl")
    )


def metrics_snapshots(root: str) -> List[str]:
    """Paths of per-worker metrics snapshot files, sorted by name."""
    base = os.path.join(os.path.abspath(root), METRICS_SUBDIR)
    try:
        names = os.listdir(base)
    except OSError:
        return []
    return sorted(
        os.path.join(base, name) for name in names if name.endswith(".json")
    )


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _remove(path: str) -> bool:
    try:
        os.remove(path)
        return True
    except OSError:
        return False


def obs_stats(root: str) -> Dict[str, int]:
    """Counts and byte totals of everything living under ``obs/``."""
    trace_file = os.path.join(obs_dir(root), TRACE_LOG_NAME)
    segments = rotated_trace_segments(root)
    snapshots = metrics_snapshots(root)
    return {
        "trace_bytes": _size(trace_file),
        "rotated_segments": len(segments),
        "rotated_bytes": sum(_size(p) for p in segments),
        "metrics_snapshots": len(snapshots),
        "metrics_bytes": sum(_size(p) for p in snapshots),
    }


def obs_gc(root: str, max_age_s: Optional[float] = None) -> Dict[str, int]:
    """Sweep rotated trace segments and stale metrics snapshots.

    Every rotated segment is removed; a metrics snapshot is removed when its
    mtime is older than ``max_age_s`` seconds (``None`` keeps all snapshots —
    age is the only signal that a snapshot's worker is gone, so without a
    threshold none can be called stale).  Returns removal counts plus the
    count of paths that could not be removed (``skipped``).
    """
    removed_segments = 0
    removed_snapshots = 0
    skipped = 0
    for path in rotated_trace_segments(root):
        if _remove(path):
            removed_segments += 1
        else:
            skipped += 1
    if max_age_s is not None:
        import time

        cutoff = time.time() - float(max_age_s)
        for path in metrics_snapshots(root):
            try:
                stale = os.path.getmtime(path) < cutoff
            except OSError:
                continue  # vanished underneath us — already gone
            if not stale:
                continue
            if _remove(path):
                removed_snapshots += 1
            else:
                skipped += 1
    return {
        "rotated_segments": removed_segments,
        "metrics_snapshots": removed_snapshots,
        "skipped": skipped,
    }


def obs_clear(root: str) -> Dict[str, int]:
    """Remove the live journal, all rotated segments, and all snapshots."""
    removed = {"trace": 0, "rotated_segments": 0, "metrics_snapshots": 0}
    trace_file = os.path.join(obs_dir(root), TRACE_LOG_NAME)
    if os.path.exists(trace_file) and _remove(trace_file):
        removed["trace"] = 1
    for path in rotated_trace_segments(root):
        if _remove(path):
            removed["rotated_segments"] += 1
    for path in metrics_snapshots(root):
        if _remove(path):
            removed["metrics_snapshots"] += 1
    return removed
