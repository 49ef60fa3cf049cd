"""A process-local metrics registry with Prometheus text exposition.

Counters, gauges, and fixed-bucket histograms — the three instrument shapes a
sweep deployment needs — kept in plain dicts guarded by one lock, so an
increment is a hash lookup plus an add (cheap enough to leave on always;
``REPRO_METRICS=off`` disables only the *exposition*: the ``GET /metrics``
endpoint and the per-worker snapshot files, never the in-process counting).

The registry absorbs the counters that previously lived as scattered
attributes (engine cache hits, lease reclaims, drain retries, quarantines,
chaos injections, supervisor restarts) and adds per-site latency histograms
fed by the tracing layer (:func:`observe_span`).

Cross-worker merge: a worker process periodically publishes its registry as
``<root>/obs/metrics/<owner>.json`` (atomic replace, alongside its liveness
file); the serve frontend renders ``GET /metrics`` from its *own* live
registry plus every snapshot whose pid differs from its own (embedded worker
threads share the frontend's registry, so same-pid snapshots would double
count).  Merge semantics: counters and histogram buckets **sum**, gauges take
the **max** — documented in the Observability section of
``docs/architecture.md``.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro import settings
from repro.util import durable

#: Where worker snapshots live, under the cache root.
METRICS_SUBDIR = os.path.join("obs", "metrics")

#: The Prometheus text exposition content type (``GET /metrics``).
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Default latency buckets (seconds) — spans from sub-millisecond store reads
#: to multi-second cold cells.  ``+Inf`` is implicit.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Help strings, declared once so call sites never repeat (or contradict) them.
HELP: Dict[str, str] = {
    "repro_cells_computed_total": "Cells computed (store misses executed).",
    "repro_cells_cached_total": "Cells served from the results store.",
    "repro_cell_retries_total": "Cell attempts that failed and were retried.",
    "repro_cells_quarantined_total": "Cells poisoned after exhausting the attempt budget.",
    "repro_cells_duplicated_total": "Cells recomputed after a lease was lost mid-compute.",
    "repro_lease_reclaims_total": "Expired leases reclaimed from dead or paused workers.",
    "repro_chaos_injections_total": "Faults injected by the chaos engine, by site.",
    "repro_worker_restarts_total": "Supervised worker threads restarted after a crash.",
    "repro_http_requests_total": "HTTP requests served, by method.",
    "repro_span_duration_seconds": "Span durations from the tracing layer, by site.",
    "repro_cell_compute_seconds": "Wall time of individual cell computations.",
    "repro_uptime_seconds": "Seconds since this process's server started.",
}


class Counter:
    """A monotonically increasing count (scrapes may only ever see it grow)."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, n: float = 1.0) -> None:
        """Add ``n`` (must be non-negative; counters never go down)."""
        if n < 0:
            raise ValueError(f"counter increment must be >= 0, got {n}")
        with self._lock:
            self.value += n


class Gauge:
    """A value that can go up and down (queue depth, uptime)."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the current value."""
        with self._lock:
            self.value = float(value)


class Histogram:
    """A fixed-bucket histogram (cumulative ``le`` buckets, Prometheus-style).

    ``observe(v)`` increments every bucket whose upper bound admits ``v``
    *at render time*, not at observe time: internally each bucket counts only
    its own interval and the renderer accumulates, which keeps ``observe``
    O(log n) (a bisect) instead of O(buckets).
    """

    __slots__ = ("buckets", "counts", "sum", "count", "_lock")

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError(f"histogram buckets must be strictly increasing: {buckets}")
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # last slot = +Inf overflow
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        i = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self.counts[i] += 1
            self.sum += value
            self.count += 1

    def cumulative(self) -> List[int]:
        """Cumulative per-bucket counts (the ``le`` semantics), +Inf last."""
        with self._lock:
            out: List[int] = []
            acc = 0
            for c in self.counts:
                acc += c
                out.append(acc)
            return out


#: label tuple -> instrument, per metric family.
_Series = Dict[Tuple[Tuple[str, str], ...], Any]


class MetricsRegistry:
    """All metric families of one process, renderable as Prometheus text."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: name -> (type, series dict); type is "counter" | "gauge" | "histogram".
        self._families: Dict[str, Tuple[str, _Series]] = {}

    def _instrument(
        self,
        kind: str,
        name: str,
        labels: Optional[Dict[str, str]],
        factory,
    ) -> Any:
        """The (created-once) instrument of a (name, labels) series."""
        label_key = tuple(sorted((labels or {}).items()))
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = (kind, {})
                self._families[name] = family
            elif family[0] != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family[0]}, not {kind}"
                )
            series = family[1]
            instrument = series.get(label_key)
            if instrument is None:
                instrument = factory()
                series[label_key] = instrument
            return instrument

    def counter(self, name: str, labels: Optional[Dict[str, str]] = None) -> Counter:
        """The counter of a (name, labels) series (created on first use)."""
        return self._instrument("counter", name, labels, Counter)

    def gauge(self, name: str, labels: Optional[Dict[str, str]] = None) -> Gauge:
        """The gauge of a (name, labels) series."""
        return self._instrument("gauge", name, labels, Gauge)

    def histogram(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """The histogram of a (name, labels) series."""
        return self._instrument("histogram", name, labels, lambda: Histogram(buckets))

    # -- snapshots -------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serialisable copy of every family (the merge currency)."""
        out: Dict[str, Any] = {}
        with self._lock:
            families = {
                name: (kind, dict(series))
                for name, (kind, series) in self._families.items()
            }
        for name, (kind, series) in families.items():
            rows = []
            for label_key, inst in sorted(series.items()):
                row: Dict[str, Any] = {"labels": dict(label_key)}
                if kind == "histogram":
                    row["buckets"] = list(inst.buckets)
                    row["counts"] = list(inst.counts)
                    row["sum"] = inst.sum
                    row["count"] = inst.count
                else:
                    row["value"] = inst.value
                rows.append(row)
            out[name] = {"type": kind, "series": rows}
        return out


def merge_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold worker snapshots into one: counters/histograms sum, gauges max."""
    merged: Dict[str, Any] = {}
    for snap in snapshots:
        for name, family in snap.items():
            kind = family.get("type")
            target = merged.setdefault(name, {"type": kind, "series": []})
            if target["type"] != kind:
                continue  # a renamed metric across versions; keep the first shape
            index = {
                tuple(sorted(row["labels"].items())): row for row in target["series"]
            }
            for row in family.get("series", ()):
                label_key = tuple(sorted(row.get("labels", {}).items()))
                have = index.get(label_key)
                if have is None:
                    copied = json.loads(json.dumps(row))
                    target["series"].append(copied)
                    index[label_key] = copied
                elif kind == "histogram":
                    if have.get("buckets") == row.get("buckets"):
                        have["counts"] = [
                            a + b for a, b in zip(have["counts"], row["counts"])
                        ]
                        have["sum"] += row.get("sum", 0.0)
                        have["count"] += row.get("count", 0)
                elif kind == "gauge":
                    have["value"] = max(have.get("value", 0.0), row.get("value", 0.0))
                else:
                    have["value"] = have.get("value", 0.0) + row.get("value", 0.0)
    return merged


def _format_value(value: float) -> str:
    """Prometheus-style number rendering (integers without a trailing .0)."""
    if value != value or value in (math.inf, -math.inf):  # pragma: no cover
        return str(value)
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: Dict[str, str], extra: Optional[Tuple[str, str]] = None) -> str:
    """Render one label set as ``{k="v",...}`` (empty string when none)."""
    items = sorted(labels.items())
    if extra is not None:
        items.append(extra)
    if not items:
        return ""
    rendered = ",".join(
        '{}="{}"'.format(
            k, str(v).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        )
        for k, v in items
    )
    return "{" + rendered + "}"


def render_prometheus(merged: Dict[str, Any]) -> str:
    """Render one merged snapshot in the Prometheus text exposition format."""
    lines: List[str] = []
    for name in sorted(merged):
        family = merged[name]
        kind = family["type"]
        help_text = HELP.get(name, name.replace("_", " "))
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for row in family["series"]:
            labels = row.get("labels", {})
            if kind == "histogram":
                acc = 0
                for bound, count in zip(row["buckets"], row["counts"]):
                    acc += count
                    lines.append(
                        f"{name}_bucket{_format_labels(labels, ('le', _format_value(bound)))} {acc}"
                    )
                acc += row["counts"][len(row["buckets"])]
                lines.append(f"{name}_bucket{_format_labels(labels, ('le', '+Inf'))} {acc}")
                lines.append(f"{name}_sum{_format_labels(labels)} {_format_value(row['sum'])}")
                lines.append(f"{name}_count{_format_labels(labels)} {row['count']}")
            else:
                lines.append(f"{name}{_format_labels(labels)} {_format_value(row['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------------
# the process singleton + convenience recorders
# ---------------------------------------------------------------------------------

_REGISTRY = MetricsRegistry()
_registry_lock = threading.Lock()


def registry() -> MetricsRegistry:
    """The process-wide registry (one per process, shared by every thread)."""
    return _REGISTRY


def reset_registry() -> MetricsRegistry:
    """Replace the process registry with a fresh one (tests only)."""
    global _REGISTRY
    with _registry_lock:
        _REGISTRY = MetricsRegistry()
    return _REGISTRY


def inc(name: str, n: float = 1.0, **labels: str) -> None:
    """Increment one counter series on the process registry."""
    registry().counter(name, labels or None).inc(n)


def observe(name: str, value: float, **labels: str) -> None:
    """Record one histogram observation on the process registry."""
    registry().histogram(name, labels or None).observe(value)


def observe_span(site: str, dur_s: float) -> None:
    """Feed one finished span into the per-site latency histogram."""
    observe("repro_span_duration_seconds", dur_s, site=site)


# ---------------------------------------------------------------------------------
# cross-worker snapshot files
# ---------------------------------------------------------------------------------


def snapshot_path(root: str, owner: str) -> str:
    """The snapshot file of one worker under a cache root."""
    return os.path.join(os.path.abspath(root), METRICS_SUBDIR, f"{owner}.json")


def write_snapshot(root: str, owner: str) -> None:
    """Atomically publish this process's registry for cross-worker merging.

    Best-effort and gated on ``REPRO_METRICS``: a worker that cannot write
    its snapshot still computes cells; only the merged scrape goes blind to
    it (exactly like a liveness file).
    """
    if not settings.get("REPRO_METRICS"):
        return
    doc = {
        "owner": owner,
        "pid": os.getpid(),
        "written_at": time.time(),
        "metrics": registry().snapshot(),
    }
    try:
        durable.publish(snapshot_path(root, owner), json.dumps(doc, sort_keys=True))
    except OSError:  # pragma: no cover - snapshots are observability only
        pass


def read_snapshots(root: str, skip_pid: Optional[int] = None) -> List[Dict[str, Any]]:
    """Every worker snapshot under a cache root (minus ``skip_pid``'s own).

    The frontend passes its own pid: embedded worker threads share the
    frontend's live registry, so their snapshot would double count.
    """
    directory = os.path.join(os.path.abspath(root), METRICS_SUBDIR)
    snaps: List[Dict[str, Any]] = []
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return snaps
    for name in names:
        if not name.endswith(".json"):
            continue
        doc = durable.read_json(os.path.join(directory, name))
        if doc is None or (skip_pid is not None and doc.get("pid") == skip_pid):
            continue
        metrics = doc.get("metrics")
        if isinstance(metrics, dict):
            snaps.append(metrics)
    return snaps


def render_merged(root: str, include_local: bool = True) -> str:
    """The Prometheus text of a cache root: local registry + worker snapshots."""
    snaps: List[Dict[str, Any]] = []
    if include_local:
        snaps.append(registry().snapshot())
    snaps.extend(read_snapshots(root, skip_pid=os.getpid() if include_local else None))
    return render_prometheus(merge_snapshots(snaps))
