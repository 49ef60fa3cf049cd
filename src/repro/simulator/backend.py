"""Simulator loop backends: the pure-Python loop or a self-built C kernel.

Both execute the same event loop, bit-identically; the reference they must
match is :func:`repro.simulator.execution.simulate_graph`, which the
equivalence suite asserts.

``python``
    The fastpath's own event loop over chunked replay terms.  Always
    available; the fallback.
``cext``
    ``_simkernel.c`` compiled on first use with the system C compiler
    (``-O2 -ffp-contract=off``, no Python headers needed) and driven through
    :mod:`ctypes`.  The shared object is cached under
    ``$REPRO_KERNEL_CACHE`` (default ``~/.cache/repro/kernels``) keyed by the
    source hash, so later runs only ``dlopen`` it.

Selection: ``REPRO_SIM_BACKEND`` picks one of ``auto|python|cext``; any other
name raises :class:`ValueError`.  ``auto`` — the default — runs ``cext`` when
it builds and loads, else ``python``.  Forcing ``cext`` where it is
unavailable raises :class:`BackendUnavailable` with the recorded reason.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro import settings
from repro.util import durable

_KERNEL_SOURCE = os.path.join(os.path.dirname(__file__), "_simkernel.c")

#: Return codes of the kernel (matching ``_simkernel.c``).
_ERRORS = {
    1: "kernel workspace allocation failed",
    2: "event heap overflow (kernel bug)",
    3: "pre-drawn uniform block exhausted (draw-bound bug)",
}


class BackendUnavailable(RuntimeError):
    """Raised when a requested backend cannot run on this machine."""


#: Positional metadata passed to the kernel ahead of the arrays:
#: (n, n_nodes, cores_per_node, spares_per_node, net_latency, net_bandwidth,
#:  contention, collect, p_crash, p_sdc, decision_s).
Meta = Tuple[int, int, int, int, float, float, int, int, float, float, float]


class PythonBackend:
    """Marker backend: the fastpath's own event loop runs the replay."""

    name = "python"


class CExtBackend:
    """ctypes driver over the self-compiled ``_simkernel.c`` shared object."""

    name = "cext"

    def __init__(self) -> None:
        self._lib = _load_kernel_lib()
        i64 = ctypes.c_longlong
        f64 = ctypes.c_double
        i32 = ctypes.c_int
        ptr = ctypes.c_void_p
        fn = self._lib.simulate_kernel_batch
        fn.restype = i32
        fn.argtypes = (
            [i64, i64, i64, i64, i64, f64, f64, i32, i32, f64, f64, f64]
            + [ptr] * 10  # replay arrays
            + [ptr, ptr, ptr, ptr, ptr, ptr]  # csr + degrees + placement + flags
            + [ptr, i64]  # uniforms
            + [ptr, ptr]  # out scalars/counts
            + [ptr, ptr, ptr, ptr]  # record arrays
        )
        self._fn = fn

    def run_batch(
        self,
        n_lanes: int,
        meta: Meta,
        arrays: Tuple[np.ndarray, ...],
        uniforms: np.ndarray,
        n_uniforms: int,
        out_scalars: np.ndarray,
        out_counts: np.ndarray,
        record_arrays: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    ) -> int:
        """Replay ``n_lanes`` seed lanes in one kernel call; the status code (0 = OK).

        ``uniforms`` holds one pre-drawn row per lane; outputs are written at
        lane offsets.
        """
        (n, n_nodes, cores, spares, net_lat, net_bw, contention, collect, p_crash, p_sdc, decision_s) = meta
        def p(a: np.ndarray):
            return a.ctypes.data_as(ctypes.c_void_p)
        return self._fn(
            n_lanes, n, n_nodes, cores, spares, net_lat, net_bw,
            contention, collect, p_crash, p_sdc, decision_s,
            *[p(a) for a in arrays],
            p(uniforms), n_uniforms,
            p(out_scalars), p(out_counts),
            *[p(a) for a in record_arrays],
        )


Backend = Union[PythonBackend, CExtBackend]


# -- C kernel build ---------------------------------------------------------


def _find_cc() -> Optional[str]:
    override = settings.get("REPRO_CC")
    if override:
        return shutil.which(override) or (override if os.path.exists(override) else None)
    for cand in ("cc", "gcc", "clang"):
        path = shutil.which(cand)
        if path:
            return path
    return None


def kernel_lib_path() -> str:
    """Path of the compiled kernel for the current source (not necessarily built)."""
    with open(_KERNEL_SOURCE, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()[:16]
    return os.path.join(settings.get("REPRO_KERNEL_CACHE"), f"simkernel-{digest}.so")


def build_kernel_lib(verbose: bool = False) -> str:
    """Compile ``_simkernel.c`` into the kernel cache; returns the .so path.

    Idempotent: if the shared object for the current source hash exists it is
    reused.  ``-ffp-contract=off`` forbids multiply-add contraction so the
    compiler cannot alter float results (the loop has no multiplies, but the
    flag makes the bit-identity guarantee explicit); ``-march`` is left at the
    default for the same reason.
    """
    target = kernel_lib_path()
    if os.path.exists(target):
        return target
    cc = _find_cc()
    if cc is None:
        raise BackendUnavailable("no C compiler found (set REPRO_CC or install gcc/clang)")
    # Published atomically, so concurrent builders race benignly.
    with durable.staged(target) as tmp:
        cmd = [cc, "-O2", "-fPIC", "-shared", "-ffp-contract=off", "-o", tmp, _KERNEL_SOURCE]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise BackendUnavailable(
                f"kernel compilation failed ({' '.join(cmd)}):\n{proc.stderr.strip()}"
            )
    if verbose:  # pragma: no cover - debugging aid
        print(f"built {target} with {cc}")
    return target


def _load_kernel_lib() -> ctypes.CDLL:
    try:
        return ctypes.CDLL(build_kernel_lib())
    except OSError as exc:  # corrupt cache entry: rebuild once
        path = kernel_lib_path()
        durable.remove(path)
        try:
            return ctypes.CDLL(build_kernel_lib())
        except OSError:
            raise BackendUnavailable(f"cannot load compiled kernel {path}: {exc}")


# -- selection --------------------------------------------------------------

_FACTORIES = {"python": PythonBackend, "cext": CExtBackend}

_instances: Dict[str, Backend] = {}
_failures: Dict[str, str] = {}


def _get_backend(name: str) -> Backend:
    inst = _instances.get(name)
    if inst is not None:
        return inst
    if name in _failures:
        raise BackendUnavailable(_failures[name])
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ValueError(f"unknown simulator backend {name!r}; known: auto|python|cext")
    try:
        inst = factory()
    except BackendUnavailable as exc:
        _failures[name] = str(exc)
        raise
    _instances[name] = inst
    return inst


def resolve_backend(name: Optional[str] = None) -> Backend:
    """The backend to use: explicit ``name``, else ``$REPRO_SIM_BACKEND``, else auto.

    ``auto`` runs ``cext`` when it is available and the pure-Python loop
    otherwise; a *named* ``cext`` that is unavailable raises
    :class:`BackendUnavailable` with the reason.
    """
    name = (name or settings.get("REPRO_SIM_BACKEND")).strip().lower()
    if name == "auto":
        try:
            return _get_backend("cext")
        except BackendUnavailable:
            return _get_backend("python")
    return _get_backend(name)


def reset_backends() -> None:
    """Forget memoised backends/failures (tests that change the environment)."""
    _instances.clear()
    _failures.clear()


def kernel_error(rc: int) -> str:
    """Human-readable message of a nonzero kernel status code."""
    return _ERRORS.get(rc, f"unknown kernel error {rc}")
