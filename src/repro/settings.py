"""Every ``REPRO_*`` environment variable ("knob"): one table, one reader.

:data:`KNOBS` maps each knob's name to its parser and default, :func:`get`
reads one knob, and :func:`check` reads them all:

* a name that is not in the table raises :class:`KeyError`, so a misspelt
  knob in the code fails the first time it runs;
* an unset or whitespace-only variable gives the default;
* any other value is parsed, and a value the parser rejects raises
  :class:`ValueError` whose message starts with ``NAME='raw'``.

Booleans share one grammar: ``1/true/yes/on`` and ``0/false/no/off``, in any
case, with surrounding spaces ignored; anything else is rejected.

The environment is read on every call and nothing is cached, because tests
and the benchmark harness set knobs inside one process.  A read costs one
dict access and one parse; callers read once per cell, replay or request,
not once per task.

What each knob does is documented in the Configuration table of the README,
and a test keeps that table's names equal to this one's.  This module
imports nothing from ``repro``, so every layer can read its knobs.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, NamedTuple, Tuple

_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"0", "false", "no", "off"})

#: The bind address of ``repro serve`` when ``REPRO_SERVE_BIND`` is unset.
_DEFAULT_BIND: Tuple[str, int] = ("127.0.0.1", 8765)


def _bool(raw: str) -> bool:
    """The one boolean grammar."""
    word = raw.strip().lower()
    if word in _TRUE:
        return True
    if word in _FALSE:
        return False
    raise ValueError("expected 1/true/yes/on or 0/false/no/off")


def _int(raw: str) -> int:
    """Any integer."""
    try:
        return int(raw)
    except ValueError:
        raise ValueError("expected an integer") from None


def _positive_int(raw: str) -> int:
    """An integer of at least 1."""
    value = _int(raw)
    if value < 1:
        raise ValueError("expected an integer >= 1")
    return value


def _positive_float(raw: str) -> float:
    """A number greater than 0."""
    try:
        value = float(raw)
    except ValueError:
        raise ValueError("expected a number") from None
    if not value > 0:  # also rejects nan
        raise ValueError("expected a number > 0")
    return value


def _choice(*words: str) -> Callable[[str], str]:
    """A parser accepting one of ``words``, in any case."""

    def parse(raw: str) -> str:
        word = raw.strip().lower()
        if word not in words:
            raise ValueError(f"expected one of {'|'.join(words)}")
        return word

    return parse


def _bind(raw: str) -> Tuple[str, int]:
    """``host:port``; an empty host is the default host."""
    host, _, port = raw.strip().rpartition(":")
    try:
        return host or _DEFAULT_BIND[0], int(port)
    except ValueError:
        raise ValueError("expected host:port with an integer port") from None


def _cpu_count() -> int:
    """One worker per CPU."""
    return max(1, os.cpu_count() or 1)


def _kernel_cache() -> str:
    """The per-user kernel cache directory."""
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "kernels")


class Knob(NamedTuple):
    """One knob: its parser, and its default (a function is called per read)."""

    parse: Callable[[str], Any]
    default: Any


#: Every knob.  A ``None`` default leaves the choice to the caller.
KNOBS: Dict[str, Knob] = {
    "REPRO_PARALLELISM": Knob(_positive_int, _cpu_count),
    "REPRO_REFERENCE": Knob(_bool, False),
    "REPRO_FAULT_SEED": Knob(_int, 0),
    "REPRO_CACHE_DIR": Knob(str, ".repro_cache"),
    "REPRO_CODE_VERSION": Knob(str, None),
    "REPRO_GRAPH_CACHE": Knob(_bool, None),
    "REPRO_SIM_BACKEND": Knob(_choice("auto", "python", "cext"), "auto"),
    "REPRO_KERNEL_CACHE": Knob(str, _kernel_cache),
    "REPRO_CC": Knob(str, None),
    "REPRO_LEASE_TTL_S": Knob(_positive_float, 30.0),
    "REPRO_SERVE_BIND": Knob(_bind, _DEFAULT_BIND),
    "REPRO_SERVE_URL": Knob(str, None),
    "REPRO_CELL_ATTEMPTS": Knob(_positive_int, 3),
    "REPRO_CHAOS": Knob(str, None),
    "REPRO_TRACE": Knob(_choice("off", "light", "full"), "off"),
    "REPRO_METRICS": Knob(_bool, True),
    "REPRO_TRACE_MAX_BYTES": Knob(_int, 64 * 1024 * 1024),
    "REPRO_SIM_CHUNK_TASKS": Knob(_int, 65536),
}


def get(name: str) -> Any:
    """The value of knob ``name``: parsed from the environment, or its default."""
    knob = KNOBS[name]
    raw = os.environ.get(name, "")
    if not raw.strip():
        return knob.default() if callable(knob.default) else knob.default
    try:
        return knob.parse(raw)
    except ValueError as exc:
        raise ValueError(f"{name}={raw!r}: {exc}") from None


def check() -> None:
    """Read every knob; raise one ``ValueError`` naming each rejected value.

    The message lists one ``NAME='raw': reason`` entry per rejected knob,
    separated by ``; ``.  A long-running process calls this before it starts
    any thread, so a bad value fails the start instead of a thread.
    """
    errors = []
    for name in KNOBS:
        try:
            get(name)
        except ValueError as exc:
            errors.append(str(exc))
    if errors:
        raise ValueError("; ".join(errors))
