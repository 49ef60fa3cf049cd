"""The collector pause around graph builds: nesting, threads, errors, fork.

* overlapping pauses of two threads leave the collector off until both end,
  and eight threads pausing at once leave it on once all have left;
* a pause restores what it found, also when the collector was already off
  and when the block raises;
* a forked child does not inherit a pause it cannot end;
* only ``repro/util/gcpause.py`` switches the collector (an ``ast`` walk
  over ``src/repro``, like the environment gate in ``test_settings``).
"""

import ast
import gc
import os
import pathlib
import sys
import threading
from typing import List

import pytest

from repro.util.gcpause import paused_gc

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


@pytest.fixture(autouse=True)
def collector_on():
    """Each test starts with the collector enabled and leaves it as found."""
    was = gc.isenabled()
    gc.enable()
    yield
    if was:
        gc.enable()
    else:
        gc.disable()


def test_a_pause_disables_and_restores():
    with paused_gc():
        assert not gc.isenabled()
        with paused_gc():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_overlapping_pauses_of_two_threads():
    first_in = threading.Event()
    second_in = threading.Event()
    first_out = threading.Event()
    seen = {}

    def first():
        with paused_gc():
            first_in.set()
            second_in.wait(5)
        first_out.set()

    def second():
        first_in.wait(5)
        with paused_gc():
            second_in.set()
            first_out.wait(5)
            seen["after_first_left"] = gc.isenabled()

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    assert not any(t.is_alive() for t in threads)
    assert seen == {"after_first_left": False}
    assert gc.isenabled()


def test_many_threads_pausing_at_once_leave_the_collector_on():
    # A lost update of the shared depth would leave the collector off.
    errors = []

    def churn():
        try:
            for _ in range(300):
                with paused_gc():
                    if gc.isenabled():
                        errors.append("collector on inside a pause")
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert gc.isenabled()


def test_a_disabled_collector_stays_disabled():
    gc.disable()
    with paused_gc():
        assert not gc.isenabled()
    assert not gc.isenabled()


def test_an_exception_restores_the_prior_state():
    with pytest.raises(RuntimeError):
        with paused_gc():
            raise RuntimeError("build failed")
    assert gc.isenabled()
    gc.disable()
    with pytest.raises(RuntimeError):
        with paused_gc():
            raise RuntimeError("build failed")
    assert not gc.isenabled()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_gets_the_collector_back():
    with paused_gc():
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            os._exit(0 if gc.isenabled() else 1)
        _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


# ---------------------------------------------------------------------------------
# only gcpause.py switches the collector
# ---------------------------------------------------------------------------------

_SWITCHES = frozenset({"disable", "enable", "freeze"})


def gc_switches(source: str) -> List[str]:
    """Every ``gc.disable``/``gc.enable``/``gc.freeze`` use and import of them."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _SWITCHES
            and isinstance(node.value, ast.Name)
            and node.value.id == "gc"
        ):
            found.append((node.lineno, f"gc.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            found += [(node.lineno, f"from gc import {a.name}") for a in node.names
                      if a.name in _SWITCHES]
    return [f"{text} (line {line})" for line, text in sorted(found)]


def test_the_check_flags_every_switch():
    source = (
        "import gc\n"
        "from gc import freeze, collect\n"
        "gc.disable()\n"
        "gc.collect()\n"
        "if gc.isenabled(): gc.enable()\n"
    )
    assert gc_switches(source) == [
        "from gc import freeze (line 2)",
        "gc.disable (line 3)",
        "gc.enable (line 5)",
    ]


def test_only_the_helper_switches_the_collector():
    helper = SRC / "util" / "gcpause.py"
    assert gc_switches(helper.read_text(encoding="utf-8"))
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        if path == helper:
            continue
        switches = gc_switches(path.read_text(encoding="utf-8"))
        if switches:
            offenders[str(path.relative_to(SRC))] = switches
    assert not offenders, f"pause the collector through paused_gc(): {offenders}"
