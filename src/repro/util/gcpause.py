"""Pause the cyclic garbage collector while one large object graph is built.

Building a Table I task graph allocates hundreds of thousands of tracked
containers (descriptors, arguments, regions, adjacency sets), none of which
becomes garbage before the graph is lowered.  CPython's generational
collector nevertheless rescans them every time its thresholds trip, and
since the heap keeps growing those rescans cost more than the build itself.
:func:`paused_gc` turns the collector off for the duration of a ``with``
block and restores it afterwards.

The collector's switch is process-wide and the service's worker threads
build graphs concurrently, so an unpaired ``gc.disable()``/``gc.enable()``
in each of them could leave it off.  Pauses therefore nest and overlap: the
first entrant records whether the collector was enabled and disables it,
and the last leaver restores what was recorded, also when the block raises.
This is the only module of the package that switches the collector.
"""

from __future__ import annotations

import gc
import os
import threading
from contextlib import contextmanager
from typing import Iterator

_lock = threading.Lock()
#: Number of pauses in progress, across all threads.
_depth = 0
#: Whether the collector was enabled when the outermost pause began.
_was_enabled = False


@contextmanager
def paused_gc() -> Iterator[None]:
    """Keep the cyclic collector disabled inside the block (nesting-safe)."""
    global _depth, _was_enabled
    with _lock:
        if _depth == 0:
            _was_enabled = gc.isenabled()
            gc.disable()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _was_enabled:
                gc.enable()


def _reset_in_child() -> None:
    """A forked child has none of the parent's pausing threads: end their
    pauses, so the collector cannot stay off in the child for good."""
    global _lock, _depth
    _lock = threading.Lock()
    if _depth:
        _depth = 0
        if _was_enabled:
            gc.enable()


os.register_at_fork(after_in_child=_reset_in_child)
