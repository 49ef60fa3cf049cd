"""The settings table: one reader, one grammar and one error for every knob.

* booleans mean the same in every knob (``on``/``off`` were misread by some);
* a value a knob's parser rejects fails with an error naming the knob, also
  through the entry points that once replaced it with the default;
* ``settings.check()`` names every bad knob at once, and the service and
  its worker loop check them all before they start a thread (``repro
  serve`` before it prints a line);
* only ``repro/settings.py`` reads the process environment (a stdlib
  ``ast`` walk over ``src/repro``);
* the README's Configuration table documents exactly the table's knobs.
"""

import ast
import pathlib
import re
import threading
from typing import List

import pytest

from repro import settings
from repro.analysis import runner
from repro.analysis.store import ResultStore
from repro.cli import main
from repro.obs.metrics import snapshot_path, write_snapshot
from repro.serve.app import ReproServer, default_bind
from repro.serve.leases import LeaseStore
from repro.serve.workers import SweepWorker

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: A value each knob's parser rejects; knobs that take any string are absent.
BAD_VALUES = {
    "REPRO_PARALLELISM": "0",
    "REPRO_REFERENCE": "maybe",
    "REPRO_FAULT_SEED": "seven",
    "REPRO_GRAPH_CACHE": "sometimes",
    "REPRO_SIM_BACKEND": "numba",
    "REPRO_LEASE_TTL_S": "-1",
    "REPRO_SERVE_BIND": "localhost:http",
    "REPRO_CELL_ATTEMPTS": "many",
    "REPRO_TRACE": "ful",
    "REPRO_METRICS": "2",
    "REPRO_TRACE_MAX_BYTES": "64MiB",
    "REPRO_SIM_CHUNK_TASKS": "1e6",
}


@pytest.fixture
def unpinned(monkeypatch):
    """No process-wide pin hides the environment (``--reference`` sets one)."""
    monkeypatch.setitem(runner._DEFAULTS, "fast", None)
    monkeypatch.setitem(runner._DEFAULTS, "parallelism", None)
    monkeypatch.setitem(runner._GRAPH_CACHE, "enabled", None)


# ---------------------------------------------------------------------------------
# one boolean grammar
# ---------------------------------------------------------------------------------


def test_graph_cache_off_turns_the_store_off(unpinned, monkeypatch):
    monkeypatch.setenv("REPRO_GRAPH_CACHE", "off")
    assert runner.graph_cache_enabled(True) is False


def test_reference_on_selects_the_reference_path(unpinned, monkeypatch):
    monkeypatch.setenv("REPRO_REFERENCE", "on")
    assert runner.default_fast() is False


def test_metrics_typo_fails_by_name(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_METRICS", "maybe")
    with pytest.raises(ValueError, match="REPRO_METRICS"):
        write_snapshot(str(tmp_path), "w1")
    assert not pathlib.Path(snapshot_path(str(tmp_path), "w1")).exists()


def test_empty_graph_cache_gives_the_callers_fallback(unpinned, monkeypatch):
    for raw in ("", "  "):
        monkeypatch.setenv("REPRO_GRAPH_CACHE", raw)
        assert runner.graph_cache_enabled(True) is True
        assert runner.graph_cache_enabled(False) is False


@pytest.mark.parametrize("name", ["REPRO_REFERENCE", "REPRO_METRICS", "REPRO_GRAPH_CACHE"])
def test_every_boolean_knob_takes_the_same_words(monkeypatch, name):
    for raw, value in (
        ("1", True), (" TRUE ", True), ("Yes", True), ("on", True),
        ("0", False), ("False", False), (" no", False), ("OFF", False),
    ):
        monkeypatch.setenv(name, raw)
        assert settings.get(name) is value, raw


# ---------------------------------------------------------------------------------
# bad values fail by name
# ---------------------------------------------------------------------------------


def test_every_rejecting_parser_has_a_bad_value():
    rejecting = {name for name, knob in settings.KNOBS.items() if knob.parse is not str}
    assert set(BAD_VALUES) == rejecting


@pytest.mark.parametrize("name", sorted(BAD_VALUES))
def test_a_bad_value_fails_by_name(monkeypatch, name):
    raw = BAD_VALUES[name]
    monkeypatch.setenv(name, raw)
    with pytest.raises(ValueError) as info:
        settings.get(name)
    assert str(info.value).startswith(f"{name}={raw!r}")


def test_a_bad_knob_leaves_the_others_readable(monkeypatch):
    for name, raw in BAD_VALUES.items():
        monkeypatch.setenv(name, raw)
    monkeypatch.setenv("REPRO_CACHE_DIR", "elsewhere")
    assert settings.get("REPRO_CACHE_DIR") == "elsewhere"


def test_check_passes_when_every_knob_is_valid(monkeypatch):
    for name in settings.KNOBS:
        monkeypatch.delenv(name, raising=False)
    settings.check()
    monkeypatch.setenv("REPRO_METRICS", "off")
    monkeypatch.setenv("REPRO_SIM_CHUNK_TASKS", "4096")
    settings.check()


def test_check_names_every_bad_knob(monkeypatch):
    for name in settings.KNOBS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("REPRO_METRICS", "maybe")
    monkeypatch.setenv("REPRO_TRACE", "ful")
    with pytest.raises(ValueError) as info:
        settings.check()
    entries = str(info.value).split("; ")
    assert [entry.split(":", 1)[0] for entry in entries] == [
        "REPRO_TRACE='ful'",
        "REPRO_METRICS='maybe'",
    ]


def test_server_start_fails_on_a_bad_knob_before_any_thread(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_METRICS", "maybe")
    before = set(threading.enumerate())
    server = ReproServer(root=str(tmp_path), host="127.0.0.1", port=0, workers=2)
    try:
        with pytest.raises(ValueError, match="REPRO_METRICS='maybe'"):
            server.start()
        started = [t.name for t in set(threading.enumerate()) - before]
        assert not [
            name for name in started
            if name == "repro-serve" or name == "worker-supervisor"
            or name.startswith(("sweep-worker-", "liveness-"))
        ], started
    finally:
        server.stop()


def test_worker_loop_fails_on_a_bad_knob_before_any_thread(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_METRICS", "maybe")
    before = set(threading.enumerate())
    with pytest.raises(ValueError, match="REPRO_METRICS='maybe'"):
        SweepWorker(str(tmp_path)).run_forever(idle_exit=True)
    assert set(threading.enumerate()) <= before


@pytest.mark.parametrize("mode", [(), ("--worker",)], ids=["server", "worker"])
def test_repro_serve_reports_a_bad_knob_before_it_starts(tmp_path, monkeypatch, capsys, mode):
    monkeypatch.setenv("REPRO_METRICS", "maybe")
    argv = ["serve", "--port", "0", "--workers", "1", "--cache-dir", str(tmp_path), *mode]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("repro: REPRO_METRICS='maybe'")


def test_unknown_knob_is_a_key_error():
    with pytest.raises(KeyError):
        settings.get("REPRO_NO_SUCH_KNOB")


def test_each_read_sees_the_current_environment(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_CHUNK_TASKS", "7")
    assert settings.get("REPRO_SIM_CHUNK_TASKS") == 7
    monkeypatch.setenv("REPRO_SIM_CHUNK_TASKS", "9")
    assert settings.get("REPRO_SIM_CHUNK_TASKS") == 9
    monkeypatch.delenv("REPRO_SIM_CHUNK_TASKS")
    assert settings.get("REPRO_SIM_CHUNK_TASKS") == 65536


def test_lease_store_rejects_a_bad_ttl(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_LEASE_TTL_S", "abc")
    with pytest.raises(ValueError, match="REPRO_LEASE_TTL_S"):
        LeaseStore(str(tmp_path), owner="x")


def test_attempt_budget_rejects_zero(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CELL_ATTEMPTS", "0")
    with pytest.raises(ValueError, match="REPRO_CELL_ATTEMPTS"):
        ResultStore(str(tmp_path)).claim_attempt("ab" * 32, "w1")


def test_default_bind_rejects_a_portless_address(monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_BIND", "nonsense")
    with pytest.raises(ValueError, match="REPRO_SERVE_BIND"):
        default_bind()
    monkeypatch.setenv("REPRO_SERVE_BIND", ":9000")  # an empty host is the default host
    assert default_bind() == ("127.0.0.1", 9000)
    assert default_bind(port=0) == ("127.0.0.1", 0)


def test_default_parallelism_rejects_zero(unpinned, monkeypatch):
    monkeypatch.setenv("REPRO_PARALLELISM", "0")
    with pytest.raises(ValueError, match="REPRO_PARALLELISM"):
        runner.default_parallelism()


# ---------------------------------------------------------------------------------
# only settings.py reads the environment
# ---------------------------------------------------------------------------------

_ENV_NAMES = frozenset({"environ", "getenv"})


def env_reads(source: str) -> List[str]:
    """Every ``os.environ``/``os.getenv`` use and ``from os`` import of them."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _ENV_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, f"from os import {a.name}") for a in node.names
                      if a.name in _ENV_NAMES]
    return [f"{text} (line {line})" for line, text in sorted(found)]


def test_the_check_flags_every_environment_read():
    source = (
        "import os\n"
        "from os import environ, path\n"
        "a = os.environ.get('X')\n"
        "b = os.getenv('Y')\n"
        "c = os.path.join(path.sep, 'environ')\n"
    )
    assert env_reads(source) == [
        "from os import environ (line 2)",
        "os.environ (line 3)",
        "os.getenv (line 4)",
    ]


def test_only_settings_reads_the_environment():
    modules = [path for path in sorted(SRC.rglob("*.py")) if path.name != "settings.py"]
    assert modules, f"no modules under {SRC}"
    offenders = {}
    for path in modules:
        reads = env_reads(path.read_text(encoding="utf-8"))
        if reads:
            offenders[str(path.relative_to(SRC))] = reads
    assert not offenders, f"read knobs through repro.settings.get: {offenders}"


def test_settings_imports_nothing_from_repro():
    tree = ast.parse((SRC / "settings.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name.split(".")[0] == "repro"]


# ---------------------------------------------------------------------------------
# the README documents the table
# ---------------------------------------------------------------------------------


def test_readme_configuration_table_names_every_knob():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", section, re.MULTILINE))
    # REPRO_BENCH_SCALE belongs to the benchmarks/ harness, not the package.
    assert documented == set(settings.KNOBS) | {"REPRO_BENCH_SCALE"}
