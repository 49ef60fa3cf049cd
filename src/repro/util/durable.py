"""Durable files: how the stores and the sweep service write and read shared files.

Workers coordinate only through files under the cache root: cell records,
compiled graphs, leases, attempt markers, poison tombstones, job documents
and markers, liveness files and metrics snapshots.  This module is the one
place that writes them, and it keeps two promises for every such file:

* **A name never holds a partial document.**  Every write goes to a temp
  file beside its target, named ``<path>.tmp.<pid>.<hex>`` (unique per call,
  so two threads of one process never share one), and is then moved into
  place.  :func:`publish` and :func:`staged` replace the target with
  ``os.replace``.  :func:`create_once` hard-links the temp file to the
  target with ``os.link``, which fails when the target exists, so exactly
  one of any number of creators wins.  On a filesystem without hard links
  it falls back to an ``O_CREAT | O_EXCL`` create followed by the write:
  still one winner, but the name exists, empty, until the write ends.
* **A failed write leaves nothing behind.**  The temp file is removed when
  the write or the move raises.  Only a killed process leaves one, and every
  store's ``gc`` sweeps those (:func:`is_temp`).

Readers use :func:`read_json`, which reads a missing, unreadable or torn
file as ``None``.  Nothing here calls ``fsync``: a published file survives
the death of its writer, not a power loss.
"""

from __future__ import annotations

import json
import os
import secrets
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Union

#: The infix of every temp name (``<path>.tmp.<pid>.<hex>``).
TMP_INFIX: str = ".tmp."


def is_temp(name: str) -> bool:
    """Whether a file name is a writer's temp file (``gc`` removes them)."""
    return TMP_INFIX in name


def _temp_path(path: str) -> str:
    """A temp name beside ``path``, unique per call."""
    return f"{path}{TMP_INFIX}{os.getpid()}.{secrets.token_hex(4)}"


def _bytes(data: Union[str, bytes]) -> bytes:
    """``data`` as bytes (text as UTF-8)."""
    return data.encode("utf-8") if isinstance(data, str) else data


def remove(path: str) -> bool:
    """Best-effort ``os.remove``; ``True`` iff this call removed ``path``."""
    try:
        os.remove(path)
    except OSError:
        return False
    return True


@contextmanager
def staged(path: str) -> Iterator[str]:
    """Yield a temp path beside ``path``; move it onto ``path`` on a clean exit.

    For writers that need a path or a stream rather than a finished buffer
    (a streamed ``.npz``, a compiler's ``-o``).  The target's directory is
    created first.  If the block or the move raises, the temp file is
    removed and the error propagates.
    """
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = _temp_path(path)
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        remove(tmp)
        raise


def publish(path: str, data: Union[str, bytes]) -> None:
    """Atomically replace ``path`` with ``data`` (text is written as UTF-8)."""
    with staged(path) as tmp, open(tmp, "wb") as fh:
        fh.write(_bytes(data))


def create_once(path: str, data: Union[str, bytes]) -> bool:
    """Create ``path`` holding ``data``; ``False`` iff ``path`` already exists.

    Single winner among concurrent creators, and the name appears only with
    its whole document.  Any error other than an existing target raises.
    """
    blob = _bytes(data)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = _temp_path(path)
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
        try:
            os.link(tmp, path)
            return True
        except FileExistsError:
            return False
        except OSError:
            pass  # no hard links on this filesystem: exclusive create below
    finally:
        remove(tmp)
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    with os.fdopen(fd, "wb") as fh:
        fh.write(blob)
    return True


def read_json(path: str) -> Optional[Dict[str, Any]]:
    """The JSON object at ``path``, or ``None`` when it is missing, unreadable,
    torn or not an object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) else None
