"""The observability layer: tracing invariants, metrics contract, trace tooling.

Covers the acceptance criteria of the obs subsystem:

* tracing is observation-only — a ``REPRO_TRACE=full`` run produces
  byte-identical artifacts to an untraced run, for both the CLI (``repro run
  fig5``) and the sweep service, while every computed cell appears in the
  trace with a complete claim → compute → put span chain;
* ``GET /metrics`` speaks valid Prometheus text (HELP/TYPE headers, cumulative
  ``le`` histogram buckets, ``+Inf``) and its counters are monotonic across a
  cold drain and a warm resubmit;
* histogram bucket math, registry validation, and snapshot merge semantics;
* ``repro trace summarize|export`` round-trip on real and synthetic traces.
"""

from __future__ import annotations

import json
import os
import re
import time
import urllib.error
import urllib.request

import pytest

from repro import settings
from repro.analysis.runner import clear_caches
from repro.cli import main
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    PROM_CONTENT_TYPE,
    merge_snapshots,
    render_prometheus,
    reset_registry,
)
from repro.obs.report import (
    export_chrome_trace,
    percentile,
    read_trace,
    render_summary,
    summarize_trace,
)
from repro.obs.trace import Tracer, trace_path
from repro.serve.app import ReproServer

SCALE = "0.05"

#: A tiny-but-real service job: 2 multipliers x 2 fault rates over one workload.
SWEEP_REQUEST = {
    "workloads": ["layered:depth=3,width=2,seed=1"],
    "policies": ["app_fit"],
    "multipliers": [10.0, 5.0],
    "fault_rates": [0.0, 0.01],
    "scale": 0.2,
}


@pytest.fixture(autouse=True)
def _fresh_state(monkeypatch):
    """Isolate each test: untraced by default, fresh metrics registry."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_METRICS", raising=False)
    clear_caches()
    reset_registry()
    yield
    clear_caches()
    reset_registry()


def run_cli(*argv):
    """Invoke the CLI in-process; returns its exit status."""
    return main(list(argv))


def _get(url: str):
    """GET one URL; returns (status, content-type, raw body bytes)."""
    try:
        with urllib.request.urlopen(url) as resp:
            return resp.status, resp.headers.get("Content-Type", ""), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers.get("Content-Type", ""), exc.read()


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
    """Submit one job and poll it to completion; returns the final status."""
    code, submitted = _post(f"{server.url}/api/v1/jobs", doc)
    assert code == 202, submitted
    job_id = submitted["job"]["id"]
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        code, _, raw = _get(f"{server.url}/api/v1/jobs/{job_id}")
        assert code == 200
        status = json.loads(raw)
        if status["state"] in ("done", "failed"):
            return job_id, status
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} still {status['state']} after {timeout_s}s")


def _artifacts(server: ReproServer, job_id: str):
    """Fetch all three artifact formats of a finished job, as raw bytes."""
    blobs = {}
    for fmt in ("txt", "json", "csv"):
        code, _, raw = _get(f"{server.url}/api/v1/jobs/{job_id}/artifacts/{fmt}")
        assert code == 200, raw
        blobs[fmt] = raw
    return blobs


def _prom_series(text: str):
    """Parse Prometheus text into {series-line-name: float} plus TYPE lines."""
    values, types = {}, {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            types[name] = kind
        elif line and not line.startswith("#"):
            series, value = line.rsplit(" ", 1)
            values[series] = float(value)
    return values, types


# ---------------------------------------------------------------------------------
# metrics: instruments, merge, render
# ---------------------------------------------------------------------------------


def test_histogram_bucket_math():
    """Boundary values land in their ``le`` bucket; cumulative counts add up."""
    hist = Histogram(buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.1, 0.5, 5.0, 50.0):
        hist.observe(value)
    # per-interval counts: (-inf,0.1]=2 (0.05 and the boundary 0.1),
    # (0.1,1.0]=1, (1.0,10.0]=1, overflow=1
    assert hist.counts == [2, 1, 1, 1]
    assert hist.cumulative() == [2, 3, 4, 5]
    assert hist.count == 5
    assert hist.sum == pytest.approx(55.65)


def test_histogram_rejects_unsorted_buckets():
    with pytest.raises(ValueError):
        Histogram(buckets=(1.0, 0.5))
    with pytest.raises(ValueError):
        Histogram(buckets=(1.0, 1.0, 2.0))


def test_counter_rejects_negative_increment():
    counter = Counter()
    counter.inc(2.0)
    with pytest.raises(ValueError):
        counter.inc(-1.0)
    assert counter.value == 2.0


def test_registry_kind_mismatch_fails_loudly():
    registry = MetricsRegistry()
    registry.counter("repro_things_total").inc()
    with pytest.raises(ValueError):
        registry.gauge("repro_things_total")


def test_merge_snapshots_sums_counters_and_maxes_gauges():
    """Counters and histogram buckets sum across workers; gauges take max."""
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("repro_cells_computed_total").inc(3)
    b.counter("repro_cells_computed_total").inc(4)
    a.gauge("repro_uptime_seconds").set(10.0)
    b.gauge("repro_uptime_seconds").set(7.0)
    a.histogram("repro_cell_compute_seconds", buckets=(1.0, 2.0)).observe(0.5)
    b.histogram("repro_cell_compute_seconds", buckets=(1.0, 2.0)).observe(1.5)
    merged = merge_snapshots([a.snapshot(), b.snapshot()])
    counted = merged["repro_cells_computed_total"]["series"][0]
    assert counted["value"] == 7.0
    assert merged["repro_uptime_seconds"]["series"][0]["value"] == 10.0
    hist = merged["repro_cell_compute_seconds"]["series"][0]
    assert hist["counts"] == [1, 1, 0]
    assert hist["count"] == 2
    assert hist["sum"] == pytest.approx(2.0)


def test_render_prometheus_text_contract():
    """HELP/TYPE headers, cumulative le buckets ending at +Inf, _sum/_count."""
    registry = MetricsRegistry()
    registry.counter("repro_cells_computed_total").inc(4)
    registry.counter("repro_http_requests_total", {"method": "GET"}).inc(2)
    registry.histogram("repro_cell_compute_seconds", buckets=(0.5, 1.0)).observe(0.25)
    text = render_prometheus(merge_snapshots([registry.snapshot()]))
    values, types = _prom_series(text)
    assert types["repro_cells_computed_total"] == "counter"
    assert types["repro_cell_compute_seconds"] == "histogram"
    assert "# HELP repro_cells_computed_total " in text
    assert values["repro_cells_computed_total"] == 4.0
    assert values['repro_http_requests_total{method="GET"}'] == 2.0
    assert values['repro_cell_compute_seconds_bucket{le="0.5"}'] == 1.0
    assert values['repro_cell_compute_seconds_bucket{le="1"}'] == 1.0
    assert values['repro_cell_compute_seconds_bucket{le="+Inf"}'] == 1.0
    assert values["repro_cell_compute_seconds_count"] == 1.0
    assert values["repro_cell_compute_seconds_sum"] == 0.25
    # integers render without a trailing .0
    assert "repro_cells_computed_total 4\n" in text


# ---------------------------------------------------------------------------------
# tracing: mode parsing, span records, parenting
# ---------------------------------------------------------------------------------


def test_parse_trace_mode_accepts_known_and_rejects_typos(monkeypatch):
    for raw, mode in (("", "off"), (" FULL ", "full"), ("light", "light")):
        monkeypatch.setenv("REPRO_TRACE", raw)
        assert settings.get("REPRO_TRACE") == mode
    monkeypatch.setenv("REPRO_TRACE", "ful")
    with pytest.raises(ValueError):
        settings.get("REPRO_TRACE")  # a typo must never silently trace nothing


def test_span_records_parenting_and_envelope(tmp_path):
    """Nested spans chain parents; attrs can never clobber envelope fields."""
    tracer = Tracer("full", str(tmp_path))
    with tracer.span("cell", "k1", worker="w-1") as outer:
        with tracer.span("cell.compute", "k1", kind="should-not-clobber"):
            pass
        outer.set(outcome="computed")
    tracer.mark("cell.retry", "k1", attempt=1)
    with tracer.span("cell.claim", "k2") as cancelled:
        cancelled.cancel()
    records = read_trace(str(tmp_path))
    assert [r["site"] for r in records] == ["cell.compute", "cell", "cell.retry"]
    compute, cell, retry = records
    # the attr named "kind" must not overwrite the record envelope
    assert compute["kind"] == "span"
    assert compute["parent"] == cell["id"]
    assert "parent" not in cell
    assert cell["outcome"] == "computed"
    assert cell["dur_s"] >= compute["dur_s"] >= 0.0
    assert retry["kind"] == "mark"
    assert retry["attempt"] == 1


def test_light_mode_filters_noncore_sites(tmp_path):
    """Light mode keeps the cell lifecycle, drops claim/put/graph/http spans."""
    tracer = Tracer("light", str(tmp_path))
    assert tracer.enabled_for("cell.compute")
    assert tracer.enabled_for("engine.map")
    for site in ("cell.claim", "cell.put", "graph.load", "sim.dispatch", "http.request"):
        assert not tracer.enabled_for(site)
        with tracer.span(site, "k"):
            pass
    assert read_trace(str(tmp_path)) == []


def test_read_trace_skips_torn_and_garbage_lines(tmp_path):
    path = trace_path(str(tmp_path))
    os.makedirs(os.path.dirname(path))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"kind": "span", "site": "a"}) + "\n")
        fh.write("not json\n")
        fh.write(json.dumps({"kind": "span", "site": "b"}) + "\n")
        fh.write('{"kind": "span", "torn": tr')  # no newline: a torn append
    assert [r["site"] for r in read_trace(str(tmp_path))] == ["a", "b"]


# ---------------------------------------------------------------------------------
# report: percentiles, summarize/export round-trip
# ---------------------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 50) == 2.0
    assert percentile(values, 90) == 4.0
    assert percentile(values, 100) == 4.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile(values, 101)


def _synthetic_records():
    """A two-worker trace with compute spans and one retry mark."""
    return [
        {"kind": "span", "site": "cell.compute", "id": "1.1", "t": 1.0, "dur_s": 0.2,
         "pid": 1, "tid": 10, "key": "aaa111", "worker": "w-a", "cell_kind": "sweep"},
        {"kind": "span", "site": "cell.compute", "id": "2.1", "t": 1.1, "dur_s": 0.4,
         "pid": 2, "tid": 20, "key": "bbb222", "worker": "w-b", "cell_kind": "sweep"},
        {"kind": "span", "site": "cell.put", "id": "2.2", "t": 1.5, "dur_s": 0.01,
         "pid": 2, "tid": 20, "key": "bbb222", "worker": "w-b"},
        {"kind": "mark", "site": "cell.retry", "t": 1.2, "pid": 1, "tid": 10,
         "key": "aaa111", "attempt": 1, "worker": "w-a"},
    ]


def test_summarize_trace_percentiles_and_slowest_cells():
    summary = summarize_trace(_synthetic_records(), top=1)
    assert summary["sites"]["cell.compute"]["count"] == 2
    assert summary["sites"]["cell.compute"]["max_s"] == 0.4
    assert summary["marks"] == {"cell.retry": 1}
    assert len(summary["slowest_cells"]) == 1
    slowest = summary["slowest_cells"][0]
    assert slowest["key"] == "bbb222"
    assert slowest["worker"] == "w-b"
    text = render_summary(summary)
    assert "cell.compute" in text and "slowest cells" in text


def test_export_chrome_trace_structure():
    """One process row per worker, X span events, i mark events, chaos row."""
    chaos = [{"site": "compute", "key": "aaa111", "t": 1.3, "n": 1, "pid": 1}]
    doc = export_chrome_trace(_synthetic_records(), chaos)
    events = doc["traceEvents"]
    assert doc["displayTimeUnit"] == "ms"
    meta = [e for e in events if e["ph"] == "M" and e["name"] == "process_name"]
    assert {e["args"]["name"] for e in meta} == {"w-a", "w-b", "chaos"}
    spans = [e for e in events if e["ph"] == "X"]
    assert len(spans) == 3
    for event in spans:
        assert {"name", "ts", "dur", "pid", "tid", "args"} <= set(event)
    compute = next(e for e in spans if e["args"].get("key") == "aaa111")
    assert compute["ts"] == pytest.approx(1.0 * 1e6)
    assert compute["dur"] == pytest.approx(0.2 * 1e6)
    instants = [e for e in events if e["ph"] == "i"]
    assert {e["name"] for e in instants} == {"cell.retry", "chaos:compute"}
    # the whole document must be JSON-serialisable (the Perfetto contract)
    json.dumps(doc)


# ---------------------------------------------------------------------------------
# CLI: byte-identity under full tracing + trace tooling round-trip
# ---------------------------------------------------------------------------------


def _read_artifacts(out_dir: str):
    """{filename: bytes} of every artifact in an output directory."""
    blobs = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            blobs[name] = fh.read()
    return blobs


@pytest.mark.parametrize("parallelism", ["1", "2"])
def test_traced_fig5_run_is_byte_identical_and_fully_covered(
    tmp_path, monkeypatch, capsys, parallelism
):
    """REPRO_TRACE=full changes nothing in the goldens, covers every cell.

    Pinned at both parallelisms: serially the engine opens each compute span
    itself, on the pool the worker process does, and both must be keyed.
    """
    plain_out, plain_cache = str(tmp_path / "out_a"), str(tmp_path / "cache_a")
    traced_out, traced_cache = str(tmp_path / "out_b"), str(tmp_path / "cache_b")

    assert run_cli("run", "fig5", "--scale", SCALE, "--out", plain_out,
                   "--cache-dir", plain_cache, "--parallelism", parallelism) == 0
    assert not os.path.exists(trace_path(plain_cache))

    monkeypatch.setenv("REPRO_TRACE", "full")
    clear_caches()
    assert run_cli("run", "fig5", "--scale", SCALE, "--out", traced_out,
                   "--cache-dir", traced_cache, "--parallelism", parallelism) == 0
    stdout = capsys.readouterr().out
    computed = int(re.search(r"\((\d+) computed", stdout).group(1))
    assert computed > 0

    assert _read_artifacts(plain_out) == _read_artifacts(traced_out)

    records = read_trace(traced_cache)
    sites = {r["site"] for r in records}
    assert {"engine.map", "cell.compute", "cell.put", "graph.load"} <= sites
    compute_keys = {r["key"] for r in records
                    if r["site"] == "cell.compute" and r.get("key")}
    put_keys = {r["key"] for r in records if r["site"] == "cell.put"}
    assert len(compute_keys) == computed
    assert compute_keys == put_keys

    # cache ls surfaces the persisted per-cell elapsed column
    capsys.readouterr()
    assert run_cli("cache", "ls", "--cache-dir", traced_cache) == 0
    ls_out = capsys.readouterr().out
    assert "elapsed" in ls_out
    assert re.search(r"\d+\.\d{3}s", ls_out)

    # summarize + export round-trip through the CLI
    assert run_cli("trace", "summarize", "--cache-dir", traced_cache) == 0
    summary_out = capsys.readouterr().out
    assert "cell.compute" in summary_out
    export_path = str(tmp_path / "chrome.json")
    assert run_cli("trace", "export", "--cache-dir", traced_cache,
                   "--out", export_path) == 0
    with open(export_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]


def test_trace_summarize_empty_root_is_an_error(tmp_path, capsys):
    assert run_cli("trace", "summarize", "--cache-dir", str(tmp_path)) == 1
    assert "no trace" in capsys.readouterr().out.lower()


# ---------------------------------------------------------------------------------
# serve: /metrics contract, span chains under a 2-worker drain, byte-identity
# ---------------------------------------------------------------------------------


def test_serve_drain_traced_metrics_and_span_chains(tmp_path, monkeypatch):
    """The full service story under REPRO_TRACE=full: byte-identical artifacts,
    complete claim → compute → put chains, and a monotonic /metrics scrape."""
    plain = ReproServer(root=str(tmp_path / "plain"), host="127.0.0.1",
                        port=0, workers=2, ttl_s=5.0).start()
    try:
        job_id, status = _submit_and_wait(plain, SWEEP_REQUEST)
        assert status["state"] == "done"
        plain_blobs = _artifacts(plain, job_id)
    finally:
        plain.stop()

    monkeypatch.setenv("REPRO_TRACE", "full")
    reset_registry()
    root = str(tmp_path / "traced")
    server = ReproServer(root=root, host="127.0.0.1", port=0,
                         workers=2, ttl_s=5.0).start()
    try:
        job_id, status = _submit_and_wait(server, SWEEP_REQUEST)
        assert status["state"] == "done"
        assert status["cells"]["computed"] == 4
        assert status["cells"]["compute_s"] > 0.0  # per-cell elapsed surfaced
        assert plain_blobs == _artifacts(server, job_id)

        # health/stats expose version, uptime and the resolved trace profile
        code, _, raw = _get(f"{server.url}/api/v1/health")
        health = json.loads(raw)
        assert code == 200
        from repro import __version__
        assert health["version"] == __version__
        assert health["uptime_s"] >= 0.0
        assert health["trace_mode"] == "full"
        code, _, raw = _get(f"{server.url}/api/v1/stats")
        assert json.loads(raw)["config"]["version"] == __version__

        # cold scrape: counters present with the right types
        code, ctype, raw = _get(f"{server.url}/metrics")
        assert code == 200
        assert ctype == PROM_CONTENT_TYPE
        cold_values, types = _prom_series(raw.decode("utf-8"))
        assert types["repro_cells_computed_total"] == "counter"
        assert types["repro_cells_cached_total"] == "counter"
        assert types["repro_span_duration_seconds"] == "histogram"
        assert types["repro_uptime_seconds"] == "gauge"
        assert cold_values["repro_cells_computed_total"] >= 4.0
        assert cold_values['repro_http_requests_total{method="POST"}'] >= 1.0
        assert any(name.startswith("repro_span_duration_seconds_bucket{")
                   and 'le="+Inf"' in name for name in cold_values)

        # warm resubmit: cached counter rises, computed stays monotonic
        _submit_and_wait(server, SWEEP_REQUEST)
        _, _, raw = _get(f"{server.url}/metrics")
        warm_values, _ = _prom_series(raw.decode("utf-8"))
        assert (warm_values["repro_cells_computed_total"]
                == cold_values["repro_cells_computed_total"])
        assert (warm_values["repro_cells_cached_total"]
                >= cold_values.get("repro_cells_cached_total", 0.0) + 4.0)
        assert (warm_values['repro_http_requests_total{method="GET"}']
                > cold_values['repro_http_requests_total{method="GET"}'])
    finally:
        server.stop()

    # every computed cell carries a complete claim -> compute -> put chain
    records = read_trace(root)
    cells = [r for r in records
             if r.get("site") == "cell" and r.get("outcome") == "computed"]
    assert len(cells) == 4
    claims = [r for r in records if r.get("site") == "cell.claim"]
    assert claims, "claim spans must be recorded in full mode"
    for cell in cells:
        children = [r for r in records if r.get("parent") == cell["id"]]
        child_sites = {r["site"] for r in children}
        assert {"cell.compute", "cell.put"} <= child_sites
        compute = next(r for r in children if r["site"] == "cell.compute")
        assert compute["key"] == cell["key"]
        assert compute["worker"] == cell["worker"]
        claim = [r for r in claims if r.get("key") == cell["key"]]
        assert claim and claim[0]["t"] <= cell["t"]


def test_metrics_endpoint_404_when_disabled(tmp_path, monkeypatch):
    """REPRO_METRICS=off hides the exposition (collection stays on)."""
    monkeypatch.setenv("REPRO_METRICS", "off")
    server = ReproServer(root=str(tmp_path), host="127.0.0.1",
                         port=0, workers=0).start()
    try:
        code, _, raw = _get(f"{server.url}/metrics")
        assert code == 404
        assert b"REPRO_METRICS" in raw
    finally:
        server.stop()


# ---------------------------------------------------------------------------------
# trace journal rotation + obs maintenance (ISSUE-10 satellite)
# ---------------------------------------------------------------------------------


def test_trace_journal_rotates_at_size_cap(tmp_path, monkeypatch):
    """Appends past REPRO_TRACE_MAX_BYTES rename the journal to a segment."""
    from repro.obs.maintenance import obs_stats, rotated_trace_segments

    monkeypatch.setenv("REPRO_TRACE_MAX_BYTES", "600")
    assert settings.get("REPRO_TRACE_MAX_BYTES") == 600
    tracer = Tracer("full", str(tmp_path))
    for i in range(40):
        tracer.mark("cell.retry", key=f"k{i:04d}", attempt=i)
    segments = rotated_trace_segments(str(tmp_path))
    assert segments, "the cap must force at least one rotation"
    # No segment (and not the live journal) exceeds cap + one record.
    for path in segments + [trace_path(str(tmp_path))]:
        assert os.path.getsize(path) <= 600 + 200
    # Every record survives, split across journal + segments, all valid JSON.
    lines = []
    for path in segments + [trace_path(str(tmp_path))]:
        with open(path, encoding="utf-8") as fh:
            lines += [json.loads(l) for l in fh if l.strip()]
    assert {doc["key"] for doc in lines} == {f"k{i:04d}" for i in range(40)}
    stats = obs_stats(str(tmp_path))
    assert stats["rotated_segments"] == len(segments)
    assert stats["rotated_bytes"] > 0 and stats["trace_bytes"] >= 0


def test_trace_rotation_disabled_and_bad_value(tmp_path, monkeypatch):
    from repro.obs.maintenance import rotated_trace_segments

    monkeypatch.setenv("REPRO_TRACE_MAX_BYTES", "0")
    tracer = Tracer("full", str(tmp_path))
    for i in range(50):
        tracer.mark("cell.retry", key=f"k{i}")
    assert rotated_trace_segments(str(tmp_path)) == []
    monkeypatch.setenv("REPRO_TRACE_MAX_BYTES", "big")
    with pytest.raises(ValueError, match="REPRO_TRACE_MAX_BYTES"):
        settings.get("REPRO_TRACE_MAX_BYTES")


def test_obs_gc_sweeps_segments_and_stale_snapshots(tmp_path, monkeypatch):
    from repro.obs.maintenance import metrics_snapshots, obs_gc, obs_stats

    monkeypatch.setenv("REPRO_TRACE_MAX_BYTES", "400")
    tracer = Tracer("full", str(tmp_path))
    for i in range(30):
        tracer.mark("cell.retry", key=f"k{i}")
    metrics_dir = tmp_path / "obs" / "metrics"
    metrics_dir.mkdir(parents=True)
    stale = metrics_dir / "dead-worker.json"
    fresh = metrics_dir / "live-worker.json"
    stale.write_text("{}")
    fresh.write_text("{}")
    old = time.time() - 7200
    os.utime(stale, (old, old))

    removed = obs_gc(str(tmp_path), max_age_s=3600)
    assert removed["rotated_segments"] >= 1
    assert removed["metrics_snapshots"] == 1
    assert metrics_snapshots(str(tmp_path)) == [str(fresh)]
    # Live journal untouched; rotated history gone.
    after = obs_stats(str(tmp_path))
    assert after["rotated_segments"] == 0 and after["trace_bytes"] > 0
    # Without a max age no snapshot can be called stale.
    assert obs_gc(str(tmp_path), max_age_s=None)["metrics_snapshots"] == 0


def test_obs_clear_removes_everything(tmp_path, monkeypatch):
    from repro.obs.maintenance import obs_clear, obs_stats

    monkeypatch.setenv("REPRO_TRACE_MAX_BYTES", "400")
    tracer = Tracer("full", str(tmp_path))
    for i in range(30):
        tracer.mark("cell.retry", key=f"k{i}")
    metrics_dir = tmp_path / "obs" / "metrics"
    metrics_dir.mkdir(parents=True)
    (metrics_dir / "w.json").write_text("{}")

    removed = obs_clear(str(tmp_path))
    assert removed["trace"] == 1
    assert removed["rotated_segments"] >= 1
    assert removed["metrics_snapshots"] == 1
    stats = obs_stats(str(tmp_path))
    assert stats == {
        "trace_bytes": 0, "rotated_segments": 0, "rotated_bytes": 0,
        "metrics_snapshots": 0, "metrics_bytes": 0,
    }


def test_cache_cli_surfaces_and_sweeps_obs(tmp_path, monkeypatch, capsys):
    """`repro cache stats|gc|clear` now cover the obs/ namespace."""
    monkeypatch.setenv("REPRO_TRACE_MAX_BYTES", "400")
    tracer = Tracer("full", str(tmp_path))
    for i in range(30):
        tracer.mark("cell.retry", key=f"k{i}")

    assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "obs trace" in out and "rotated segment(s)" in out
    assert "obs metrics" in out

    assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "rotated trace segment(s)" in out
    from repro.obs.maintenance import rotated_trace_segments

    assert rotated_trace_segments(str(tmp_path)) == []

    assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "trace" in out
    assert not os.path.exists(trace_path(str(tmp_path)))
