"""The durable-file layer: atomic publishes, single-winner creates, one gate.

* a failed :func:`~repro.util.durable.publish` or ``staged`` write leaves
  the target as it was and no temp file behind;
* :func:`~repro.util.durable.create_once` has exactly one winner among
  racing threads, also on its ``O_EXCL`` path for filesystems without hard
  links, and the target's name appears only with its whole document;
* :func:`~repro.util.durable.read_json` reads every broken file as ``None``;
* only ``repro/util/durable.py`` writes the protocol out (a stdlib ``ast``
  walk over ``src/repro``, with one named exception: the trace journal's
  rotation, which moves the live journal aside and publishes nothing).
"""

import ast
import errno
import os
import pathlib
import sys
import threading
from typing import List, Tuple

import pytest

from repro.util import durable

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _names(directory) -> List[str]:
    return sorted(os.listdir(directory))


def _spy_on_writes(monkeypatch, probe) -> list:
    """Record ``probe()`` before every write to a file the layer opens."""
    seen = []
    real_open = open

    class Spy:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            seen.append(probe())
            return self.fh.write(data)

    def spy_open(path, mode="r", **kwargs):
        fh = real_open(path, mode, **kwargs)
        return Spy(fh) if "w" in mode else fh

    monkeypatch.setattr(durable, "open", spy_open, raising=False)
    return seen


def _disk_full():
    raise OSError(errno.ENOSPC, "No space left on device")


# ---------------------------------------------------------------------------------
# publish and staged
# ---------------------------------------------------------------------------------


def test_publish_replaces_the_target_and_leaves_no_temp(tmp_path):
    target = str(tmp_path / "shard" / "doc.json")
    durable.publish(target, '{"v": 1}')
    durable.publish(target, b'{"v": 2}')
    assert durable.read_json(target) == {"v": 2}
    assert _names(tmp_path / "shard") == ["doc.json"]


def test_a_failed_write_keeps_the_target_and_removes_the_temp(tmp_path, monkeypatch):
    target = str(tmp_path / "doc.json")
    durable.publish(target, '{"v": 1}')
    _spy_on_writes(monkeypatch, _disk_full)
    with pytest.raises(OSError, match="No space"):
        durable.publish(target, '{"v": 2}')
    with pytest.raises(OSError, match="No space"):
        durable.create_once(str(tmp_path / "marker.json"), "{}")
    assert durable.read_json(target) == {"v": 1}
    assert _names(tmp_path) == ["doc.json"]


def test_a_failed_staged_writer_keeps_the_target_and_removes_the_temp(tmp_path):
    target = str(tmp_path / "graph.npz")
    durable.publish(target, b"old")
    with pytest.raises(RuntimeError, match="writer died"):
        with durable.staged(target) as tmp:
            assert durable.is_temp(os.path.basename(tmp))
            with open(tmp, "wb") as fh:
                fh.write(b"half")
            raise RuntimeError("writer died")
    with open(target, "rb") as fh:
        assert fh.read() == b"old"
    assert _names(tmp_path) == ["graph.npz"]


def test_a_failed_move_removes_the_temp(tmp_path):
    target = tmp_path / "taken"
    (target / "child").mkdir(parents=True)  # os.replace cannot replace a non-empty directory
    with pytest.raises(OSError):
        durable.publish(str(target), b"data")
    assert _names(tmp_path) == ["taken"]


def test_publish_leaves_the_old_document_readable_while_writing(tmp_path, monkeypatch):
    target = str(tmp_path / "doc.json")
    durable.publish(target, '{"v": 1}')
    seen = _spy_on_writes(monkeypatch, lambda: durable.read_json(target))
    durable.publish(target, '{"v": 2}')
    assert seen == [{"v": 1}]
    assert durable.read_json(target) == {"v": 2}


# ---------------------------------------------------------------------------------
# create_once
# ---------------------------------------------------------------------------------


def test_create_once_writes_once_and_then_reports_the_existing_target(tmp_path):
    target = str(tmp_path / "shard" / "key.attempt.0")
    assert durable.create_once(target, '{"owner": "a"}')
    assert not durable.create_once(target, '{"owner": "b"}')
    assert durable.read_json(target) == {"owner": "a"}
    assert _names(tmp_path / "shard") == ["key.attempt.0"]


def test_the_name_does_not_exist_while_its_document_is_written(tmp_path, monkeypatch):
    target = str(tmp_path / "job.done.json")
    seen = _spy_on_writes(monkeypatch, lambda: os.path.exists(target))
    assert durable.create_once(target, '{"owner": "w0"}')
    assert seen == [False]
    assert durable.read_json(target) == {"owner": "w0"}


def _race(tmp_path, n_threads: int = 8, rounds: int = 25) -> List[Tuple[list, str]]:
    """``rounds`` races of ``n_threads`` creators on one fresh name each."""
    results = []
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for r in range(rounds):
            target = str(tmp_path / f"poison.{r}")
            barrier = threading.Barrier(n_threads)
            wins = [None] * n_threads

            def contend(i: int) -> None:
                barrier.wait(timeout=10.0)
                wins[i] = durable.create_once(target, f'{{"writer": {i}}}')

            threads = [threading.Thread(target=contend, args=(i,)) for i in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
                assert not thread.is_alive(), "a creator hung"
            results.append((wins, target))
    finally:
        sys.setswitchinterval(old_interval)
    return results


def _assert_one_winner_each(results) -> None:
    for wins, target in results:
        assert wins.count(True) == 1, wins
        assert wins.count(False) == len(wins) - 1, wins
        assert durable.read_json(target) == {"writer": wins.index(True)}


def test_create_once_has_exactly_one_winner_among_threads(tmp_path):
    _assert_one_winner_each(_race(tmp_path))
    assert not [name for name in os.listdir(tmp_path) if durable.is_temp(name)]


def test_the_exclusive_create_fallback_has_exactly_one_winner(tmp_path, monkeypatch):
    def no_hard_links(src, dst):
        raise OSError(errno.EPERM, "hard links not supported", dst)

    monkeypatch.setattr(os, "link", no_hard_links)
    _assert_one_winner_each(_race(tmp_path))
    assert not [name for name in os.listdir(tmp_path) if durable.is_temp(name)]


def test_create_once_raises_errors_other_than_an_existing_target(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_bytes(b"")
    with pytest.raises(OSError):  # the parent "directory" is a file
        durable.create_once(str(blocker / "marker"), "{}")


# ---------------------------------------------------------------------------------
# read_json, remove, is_temp
# ---------------------------------------------------------------------------------


@pytest.mark.parametrize("content", [None, b"", b'{"torn": ', b"[1, 2]", b"\xff\xfe"])
def test_read_json_reads_a_missing_torn_or_non_object_file_as_none(tmp_path, content):
    path = tmp_path / "doc.json"
    if content is not None:
        path.write_bytes(content)
    assert durable.read_json(str(path)) is None


def test_remove_reports_whether_it_removed(tmp_path):
    path = tmp_path / "f"
    path.write_bytes(b"x")
    assert durable.remove(str(path)) is True
    assert durable.remove(str(path)) is False


def test_is_temp_matches_current_and_pid_only_temp_names():
    assert durable.is_temp("ab.json.tmp.123.deadbeef")
    assert durable.is_temp("ab.npz.tmp.999")
    assert not durable.is_temp("ab.json")
    assert not durable.is_temp("ab.attempt.0")


# ---------------------------------------------------------------------------------
# only durable.py writes the protocol out
# ---------------------------------------------------------------------------------

_OS_NAMES = frozenset({"replace", "link", "O_EXCL"})

#: (module, enclosing function, protocol step) sites allowed outside the layer.
_ALLOWED = {("obs/trace.py", "Tracer._maybe_rotate", "os.replace")}


def protocol_steps(source: str) -> List[Tuple[int, str, str]]:
    """Every ``os.replace``/``os.link``/``os.O_EXCL``/``tempfile.mkstemp``
    use, ``from`` import of them, and string holding ``.tmp.``, each as
    (line, enclosing function, step)."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        step = None
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "os" and node.attr in _OS_NAMES:
                step = f"os.{node.attr}"
            elif node.value.id == "tempfile" and node.attr == "mkstemp":
                step = "tempfile.mkstemp"
        elif isinstance(node, ast.ImportFrom) and node.module in ("os", "tempfile"):
            names = [a.name for a in node.names if a.name in _OS_NAMES | {"mkstemp"}]
            if names:
                step = f"from {node.module} import {', '.join(names)}"
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if durable.TMP_INFIX in node.value:
                step = repr(durable.TMP_INFIX)
        if step is not None:
            found.append((node.lineno, scope, step))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(found)


def test_the_check_flags_every_protocol_step():
    source = (
        "import os, tempfile\n"
        "from os import link, path\n"
        "class Store:\n"
        "    def put(self, tmp, p):\n"
        "        os.replace(tmp, p)\n"
        "        fd = os.open(p, os.O_CREAT | os.O_EXCL)\n"
        "def build():\n"
        "    fd, tmp = tempfile.mkstemp()\n"
        "    return f'{tmp}.tmp.{fd}', os.path.replace\n"
    )
    assert protocol_steps(source) == [
        (2, "", "from os import link"),
        (5, "Store.put", "os.replace"),
        (6, "Store.put", "os.O_EXCL"),
        (8, "build", "tempfile.mkstemp"),
        (9, "build", "'.tmp.'"),
    ]


def test_only_durable_writes_the_file_protocol():
    modules = sorted(SRC.rglob("*.py"))
    assert modules, f"no modules under {SRC}"
    offenders = {}
    for path in modules:
        module = str(path.relative_to(SRC).as_posix())
        if module == "util/durable.py":
            continue
        steps = [
            f"{step} in {scope or '<module>'} (line {line})"
            for line, scope, step in protocol_steps(path.read_text(encoding="utf-8"))
            if (module, scope, step) not in _ALLOWED
        ]
        if steps:
            offenders[module] = steps
    assert not offenders, f"write shared files through repro.util.durable: {offenders}"
