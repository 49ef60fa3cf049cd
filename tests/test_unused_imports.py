"""Every module-level import in ``src/repro`` is read by its module.

An import that nothing reads names a dependency the module does not have,
and it can load a module for nothing: the simulator once imported the fault
injector on every import.  The check is a stdlib ``ast`` walk.  Package
``__init__`` modules are skipped, since their imports are re-exports, and so
is ``from __future__``.
"""

import ast
import pathlib
from typing import Iterator, List, Sequence, Set, Tuple

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def _imported(body: Sequence[ast.stmt]) -> Iterator[Tuple[str, int]]:
    """``(name, line)`` of every name bound by an import at module level.

    Imports inside top-level ``if`` and ``try`` blocks (a ``TYPE_CHECKING``
    guard, an optional dependency) count as module level.
    """
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            blocks = [node.body, node.orelse, getattr(node, "finalbody", [])]
            blocks += [handler.body for handler in getattr(node, "handlers", [])]
            for block in blocks:
                yield from _imported(block)


def _read(tree: ast.AST) -> Set[str]:
    """Every name the module reads, also inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


def unused_imports(source: str) -> List[str]:
    """The module-level imports of ``source`` that nothing else in it reads."""
    tree = ast.parse(source)
    read = _read(tree)
    return [f"{name} (line {line})" for name, line in _imported(tree.body) if name not in read]


def test_the_check_flags_only_unread_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from typing import TYPE_CHECKING, Dict, List\n"
        "if TYPE_CHECKING:\n"
        "    from collections import OrderedDict\n"
        "def f(x: 'OrderedDict') -> List[int]:\n"
        "    return os.getpid()\n"
    )
    assert unused_imports(source) == ["np (line 3)", "Dict (line 4)"]


def test_every_module_level_import_is_used():
    modules = [path for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"]
    assert modules, f"no modules under {SRC}"
    offenders = {}
    for path in modules:
        unused = unused_imports(path.read_text(encoding="utf-8"))
        if unused:
            offenders[str(path.relative_to(SRC))] = unused
    assert not offenders, f"imports nothing in their module reads: {offenders}"
