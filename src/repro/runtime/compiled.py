"""Compiled structure-of-arrays task graphs and their on-disk store.

The experiment drivers replay the same task DAGs — one per (app, problem
size, node count) — hundreds of times across fault rates, machine sizes and
policies.  Building a :class:`~repro.runtime.graph.TaskGraph` materialises
millions of Python objects (descriptors, arguments, regions) only for the
replay machinery to immediately re-derive flat numeric quantities from them.
This module removes that detour:

* :func:`compile_graph` lowers a ``TaskGraph`` into a :class:`CompiledGraph`
  — an immutable structure-of-arrays form: CSR successor/predecessor index
  arrays, per-task duration/bytes/node-affinity arrays and per-edge
  communication payloads.  Every value is produced by the *same* arithmetic
  the simulator's reference path uses, so replaying a compiled graph is
  bit-identical to replaying the original (the equivalence suite pins this).
* :class:`CompiledGraphStore` persists compiled graphs as ``.npz`` files
  keyed by the SHA-256 of (benchmark, scale, node count, code version) —
  the same content-addressing conventions as the results store in
  :mod:`repro.analysis.store`.  Loads go through :func:`load_npz_arrays`,
  which memory-maps the uncompressed ``.npz`` members read-only, so worker
  processes replaying the same graph share one physical copy of the arrays
  instead of each rebuilding (or each loading) its own.

Invalidation follows the results store: the code version (package version,
or ``REPRO_CODE_VERSION``) is hashed into every key, so a version bump makes
old entries unreachable and ``repro cache gc`` reclaims them.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import secrets
import struct
import time
import zipfile
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import settings
from repro.runtime.graph import TaskGraph
from repro.runtime.task import Direction, TaskDescriptor

#: Bump when the compiled array layout changes (hashed into every store key).
#: Format 2 aligns every member's array data to :data:`NPZ_ALIGN` bytes.
COMPILED_FORMAT: int = 2

#: Alignment of every ``.npy`` member written by :func:`write_npz_deterministic`.
NPZ_ALIGN: int = 64

#: Zip extra-field id of the alignment padding record (the id Android's
#: ``zipalign`` uses; zip readers skip extra fields they do not know).
_ALIGN_EXTRA_ID: int = 0xD935

#: Default age limit for compiled *workload* graphs during CLI gc: one week.
#: The workload spec space is unbounded (every parameter combination is a new
#: entry), so unlike the nine Table I graphs these must eventually age out.
DEFAULT_WORKLOAD_MAX_AGE_S: float = 7 * 24 * 3600.0


def is_workload_benchmark_name(name: str) -> bool:
    """Whether a benchmark name is a workload spec (``family:params``).

    Canonical workload names always contain a colon (every family has
    parameters and canonicalisation fills the defaults in); Table I names
    never do.  Kept here — below the apps layer — as a plain syntactic check
    so the store can tag entries without importing the workload subsystem.
    """
    return ":" in name


def unique_tmp_path(path: str) -> str:
    """A temp-file name for an atomic write of ``path``, unique per call.

    The pid alone is not enough: two threads of one process writing the same
    key would share the temp file, one truncating the other's bytes and one
    ``os.replace`` failing.  The ``.tmp.`` infix is what ``gc`` sweeps.
    """
    return f"{path}.tmp.{os.getpid()}.{secrets.token_hex(4)}"


#: The array members of a :class:`CompiledGraph`, in serialisation order.
ARRAY_FIELDS: Tuple[str, ...] = (
    "task_ids",
    "durations",
    "mem_bytes",
    "input_bytes",
    "output_bytes",
    "arg_bytes",
    "node_attr",
    "succ_indptr",
    "succ_indices",
    "pred_indptr",
    "pred_indices",
    "edge_bytes",
)


#: A dependency-bearing region flattened for the overlap scan: (handle,
#: offset, end).
_Span = Tuple[Any, float, float]


def code_version() -> str:
    """The code version hashed into compiled-graph (and result) cache keys.

    Defaults to the package version; ``REPRO_CODE_VERSION`` overrides it so
    development builds can segregate their caches without editing source.
    """
    env = settings.get("REPRO_CODE_VERSION")
    if env is not None:
        return env
    from repro import __version__

    return __version__


def edge_comm_bytes(pred: TaskDescriptor, succ: TaskDescriptor) -> float:
    """Bytes transferred along a dependency edge that crosses nodes.

    Computed as the overlap between the predecessor's written regions and the
    successor's read regions; falls back to the predecessor's output size when
    no region information is available (pure-metadata graphs).
    """
    pred_writes = pred.write_regions()
    succ_reads = succ.read_regions()
    if not pred_writes or not succ_reads:
        return pred.output_bytes
    total = 0.0
    for w in pred_writes:
        for r in succ_reads:
            if w.overlaps(r):
                lo = max(w.offset, r.offset)
                hi = min(w.end, r.end)
                total += max(0.0, hi - lo)
    return total


@dataclass(frozen=True)
class CompiledGraph:
    """An immutable structure-of-arrays lowering of one :class:`TaskGraph`.

    All arrays are indexed by *dense task index* (submission order).  The CSR
    pairs (``succ_indptr``/``succ_indices`` and ``pred_indptr``/
    ``pred_indices``) store each task's successor/predecessor indices sorted
    by task id — the iteration order the reference simulator uses, which the
    fast path must reproduce for bit-identical tie-breaking.  ``edge_bytes``
    is aligned with ``succ_indices``: entry ``k`` is the communication payload
    of the edge ``(row of k) -> succ_indices[k]``.
    """

    task_ids: np.ndarray  #: int64[n] — descriptor task ids, submission order
    durations: np.ndarray  #: f8[n] — estimated compute durations (s)
    mem_bytes: np.ndarray  #: f8[n] — memory traffic (metadata override or arg sum)
    input_bytes: np.ndarray  #: f8[n] — bytes read (``in``/``inout``/values)
    output_bytes: np.ndarray  #: f8[n] — bytes written (``out``/``inout``)
    arg_bytes: np.ndarray  #: f8[n] — total argument bytes (the FIT basis)
    node_attr: np.ndarray  #: int64[n] — explicit node placement, -1 = free
    succ_indptr: np.ndarray  #: int64[n+1] — CSR row pointers (successors)
    succ_indices: np.ndarray  #: int64[nnz] — successor indices, sorted per row
    pred_indptr: np.ndarray  #: int64[n+1] — CSR row pointers (predecessors)
    pred_indices: np.ndarray  #: int64[nnz] — predecessor indices, sorted per row
    edge_bytes: np.ndarray  #: f8[nnz] — per-successor-edge comm payloads

    @property
    def n(self) -> int:
        """Number of tasks."""
        return int(self.task_ids.shape[0])

    @property
    def n_edges(self) -> int:
        """Number of dependency edges."""
        return int(self.succ_indices.shape[0])

    @property
    def nbytes(self) -> int:
        """Total size of all arrays in bytes."""
        return int(sum(getattr(self, f).nbytes for f in ARRAY_FIELDS))

    def in_degrees(self) -> np.ndarray:
        """In-degree of every task (predecessor CSR row lengths)."""
        return np.diff(self.pred_indptr)

    def validate(self) -> None:
        """Check the structural invariants; raises ``ValueError`` on violation.

        Cheap (vectorized) checks only — run on every store load so a
        corrupted or truncated file can never reach the simulator.
        """
        n = self.n
        nnz = self.n_edges
        for field in ARRAY_FIELDS:
            arr = getattr(self, field)
            if arr.ndim != 1:
                raise ValueError(f"compiled graph field {field} is not 1-D")
        for field in ("durations", "mem_bytes", "input_bytes", "output_bytes",
                      "arg_bytes", "node_attr"):
            if getattr(self, field).shape[0] != n:
                raise ValueError(f"compiled graph field {field} has wrong length")
        for ptr_name, idx_name in (("succ_indptr", "succ_indices"),
                                   ("pred_indptr", "pred_indices")):
            ptr = getattr(self, ptr_name)
            idx = getattr(self, idx_name)
            if ptr.shape[0] != n + 1 or ptr[0] != 0 or ptr[-1] != idx.shape[0]:
                raise ValueError(f"compiled graph {ptr_name} is inconsistent")
            if np.any(np.diff(ptr) < 0):
                raise ValueError(f"compiled graph {ptr_name} is not monotone")
            if idx.shape[0] and (idx.min() < 0 or idx.max() >= n):
                raise ValueError(f"compiled graph {idx_name} is out of range")
        if self.pred_indices.shape[0] != nnz or self.edge_bytes.shape[0] != nnz:
            raise ValueError("compiled graph edge arrays disagree on edge count")
        # Runtime-built and generated graphs number their tasks in ascending
        # order, which proves uniqueness in one pass; only other orders sort.
        ids = self.task_ids
        if not np.all(ids[1:] > ids[:-1]):
            ids = np.sort(ids)
            if np.any(ids[1:] == ids[:-1]):
                raise ValueError("compiled graph task ids are not unique")


def compile_graph(graph: TaskGraph) -> CompiledGraph:
    """Lower a :class:`TaskGraph` into its :class:`CompiledGraph` form.

    The per-task byte accumulations run in the same order as the reference
    paths (:class:`~repro.runtime.task.TaskDescriptor` property sums and the
    simulator's per-argument loop), so every stored float is bit-identical to
    what the object-graph paths would compute on the fly.

    Each task's arguments are walked once.  That walk yields the three byte
    sums and the task's dependency-bearing read and write regions, flattened
    to ``(handle, offset, end)`` tuples without their zero-size members;
    ``None`` stands for "no dependency-bearing region of that kind".

    Per-edge communication payloads are computed *eagerly* for every edge,
    although single-node simulations never read them: the on-disk form must
    be machine-independent (a worker may replay the same compiled graph on
    any node count), and one immutable layout keeps the replay loops free of
    a lazy-lookup branch.  The overlap scan mirrors :func:`edge_comm_bytes`
    term for term: a zero-width overlap contributes exactly 0.0 there, so
    skipping it is bit-identical.  A task without write regions, or a
    successor without read regions, gives the task's ``output_bytes`` entry
    (:attr:`TaskDescriptor.output_bytes`).  A task whose only write regions
    have size 0 still takes the scan, so its edges into readers carry 0.0.
    The scan grows with the edge count, which the per-byte dependency
    tracker keeps at a few edges per task for every Table I graph but fft
    (linpack at scale 1.0: 401,312 edges for 139,264 tasks).
    """
    ids: List[int] = []
    durations: List[float] = []
    mem_bytes: List[float] = []
    input_bytes: List[float] = []
    output_bytes: List[float] = []
    arg_bytes: List[float] = []
    node_attr: List[int] = []
    reads_of: List[Optional[List[_Span]]] = []
    writes_of: List[Optional[List[_Span]]] = []
    IN, OUT, INOUT, VALUE = Direction.IN, Direction.OUT, Direction.INOUT, Direction.VALUE
    for t in graph.tasks():
        in_b = 0.0
        out_b = 0.0
        all_b = 0.0
        reads: Optional[List[_Span]] = None
        writes: Optional[List[_Span]] = None
        for a in t.args:
            size = a.size_bytes
            direction = a.direction
            all_b += size
            if direction is IN:
                in_b += size
            elif direction is OUT:
                out_b += size
            elif direction is INOUT:
                in_b += size
                out_b += size
            elif direction is VALUE:
                in_b += size
                continue
            else:
                raise ValueError(f"task {t.task_id}: unknown direction {direction!r}")
            r = a.region
            if r is None:
                continue
            span = (r.handle, r.offset, r.offset + r.size_bytes)
            nonzero = r.size_bytes != 0
            if direction is not OUT:
                if reads is None:
                    reads = []
                if nonzero:
                    reads.append(span)
            if direction is not IN:
                if writes is None:
                    writes = []
                if nonzero:
                    writes.append(span)
        ids.append(t.task_id)
        durations.append(t.duration_s)
        mem = t.metadata.get("mem_bytes")
        mem_bytes.append(float(all_b if mem is None else mem))
        input_bytes.append(in_b)
        output_bytes.append(out_b)
        arg_bytes.append(all_b)
        node_attr.append(-1 if t.node is None else t.node)
        reads_of.append(reads)
        writes_of.append(writes)

    index = {tid: i for i, tid in enumerate(ids)}
    succ_map = graph._succ
    pred_map = graph._pred
    succ_indptr = [0]
    pred_indptr = [0]
    succ_indices: List[int] = []
    pred_indices: List[int] = []
    edge_bytes: List[float] = []
    for i, tid in enumerate(ids):
        row = [index[s] for s in sorted(succ_map[tid])]
        succ_indices += row
        writes = writes_of[i]
        out_b = output_bytes[i]
        if writes is None:
            edge_bytes += [out_b] * len(row)
        else:
            for j in row:
                reads = reads_of[j]
                if reads is None:
                    edge_bytes.append(out_b)
                    continue
                total = 0.0
                for wh, wo, we in writes:
                    for rh, ro, re_ in reads:
                        if wh is rh and wo < re_ and ro < we:
                            lo = wo if wo > ro else ro
                            hi = we if we < re_ else re_
                            if hi > lo:
                                total += hi - lo
                edge_bytes.append(total)
        succ_indptr.append(len(succ_indices))
        pred_indices += [index[p] for p in sorted(pred_map[tid])]
        pred_indptr.append(len(pred_indices))

    return CompiledGraph(
        task_ids=np.array(ids, dtype=np.int64),
        durations=np.array(durations, dtype=np.float64),
        mem_bytes=np.array(mem_bytes, dtype=np.float64),
        input_bytes=np.array(input_bytes, dtype=np.float64),
        output_bytes=np.array(output_bytes, dtype=np.float64),
        arg_bytes=np.array(arg_bytes, dtype=np.float64),
        node_attr=np.array(node_attr, dtype=np.int64),
        succ_indptr=np.array(succ_indptr, dtype=np.int64),
        succ_indices=np.array(succ_indices, dtype=np.int64),
        pred_indptr=np.array(pred_indptr, dtype=np.int64),
        pred_indices=np.array(pred_indices, dtype=np.int64),
        edge_bytes=np.array(edge_bytes, dtype=np.float64),
    )


# ---------------------------------------------------------------------------------
# deterministic .npz writing
# ---------------------------------------------------------------------------------


def write_npz_deterministic(fh, arrays: Dict[str, np.ndarray]) -> None:
    """Write an uncompressed ``.npz`` whose bytes depend only on the arrays.

    ``np.savez`` stamps each zip member with the current wall-clock time, so
    two processes compiling the same graph produce different files.  Here the
    member timestamps are pinned to the zip epoch and members are stored
    uncompressed in the given dict order, making the archive a pure function
    of its contents — which is what lets the determinism suite compare store
    files byte for byte across processes.  The layout (``ZIP_STORED`` ``.npy``
    members) is exactly what :func:`load_npz_arrays` memory-maps.

    Each member's local header carries an extra-field record padded so the
    member starts at a multiple of :data:`NPZ_ALIGN` bytes; numpy pads the
    ``.npy`` header to 64 bytes, so every array's data is aligned too and the
    C kernel can read memory-mapped members in place.
    """
    with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as zf:
        for name, arr in arrays.items():
            buf = io.BytesIO()
            np.lib.format.write_array(
                buf, np.ascontiguousarray(arr), allow_pickle=False
            )
            data = buf.getvalue()
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_STORED
            # Local header: 30 fixed bytes, the name, a 4-byte extra record
            # header, the padding, and a 20-byte zip64 record for big members.
            zip64 = len(data) * 1.05 > zipfile.ZIP64_LIMIT
            used = 30 + len(info.filename.encode("utf-8")) + 4 + (20 if zip64 else 0)
            pad = -(zf.fp.tell() + used) % NPZ_ALIGN
            info.extra = struct.pack("<HH", _ALIGN_EXTRA_ID, pad) + b"\0" * pad
            zf.writestr(info, data)


# ---------------------------------------------------------------------------------
# zero-copy .npz loading
# ---------------------------------------------------------------------------------


def _mmap_npz_arrays(path: str) -> Dict[str, np.ndarray]:
    """Memory-map every member of an uncompressed ``.npz`` read-only.

    ``np.savez`` stores members with ``ZIP_STORED`` (no compression), so each
    member's array data is a contiguous byte range of the archive.  This
    parses the zip local headers and the npy headers to find those ranges and
    hands each one to :class:`numpy.memmap` — the OS page cache then shares
    the physical pages between every process that maps the same file.
    """
    arrays: Dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as zf, open(path, "rb") as fh:
        for info in zf.infolist():
            name = info.filename
            if not name.endswith(".npy"):
                raise ValueError(f"unexpected npz member {name!r}")
            if info.compress_type != zipfile.ZIP_STORED:
                raise ValueError(f"npz member {name!r} is compressed; cannot mmap")
            with zf.open(name) as member:
                version = np.lib.format.read_magic(member)
                if version == (1, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_1_0(member)
                elif version == (2, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_2_0(member)
                else:
                    raise ValueError(f"unsupported npy format version {version}")
            if fortran or dtype.hasobject:
                raise ValueError(f"npz member {name!r} is not a plain C array")
            # The zip *local* header's name/extra lengths are independent of
            # the central directory's, so read them from the local header.
            fh.seek(info.header_offset + 26)
            name_len, extra_len = struct.unpack("<HH", fh.read(4))
            member_start = info.header_offset + 30 + name_len + extra_len
            header_size = info.file_size - int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            if header_size < 0:
                raise ValueError(f"npz member {name!r} is truncated")
            count = int(np.prod(shape, dtype=np.int64))
            if count == 0:
                arr: np.ndarray = np.empty(shape, dtype=dtype)
            else:
                arr = np.memmap(
                    path,
                    dtype=dtype,
                    mode="r",
                    offset=member_start + header_size,
                    shape=tuple(shape),
                )
            arrays[name[: -len(".npy")]] = arr
    return arrays


def load_npz_arrays(path: str, mmap: bool = True) -> Dict[str, np.ndarray]:
    """Load all arrays of a ``.npz``, memory-mapped when possible.

    Falls back to a plain (copying) ``np.load`` when the archive cannot be
    mapped — compressed members, Fortran order, or an unexpected layout.
    """
    if mmap:
        try:
            return _mmap_npz_arrays(path)
        except (ValueError, OSError, struct.error, zipfile.BadZipFile):
            pass
    with np.load(path) as npz:
        return {name: npz[name] for name in npz.files}


# ---------------------------------------------------------------------------------
# the on-disk store
# ---------------------------------------------------------------------------------


def compiled_key(
    benchmark: str,
    scale: float,
    n_nodes: Optional[int] = None,
    version: Optional[str] = None,
) -> str:
    """Content hash of a compiled graph: SHA-256 over the graph's identity.

    A graph is identified by what generates it — benchmark name, problem
    scale, node count (the Figure 6 variants) — plus the code version, so a
    ``REPRO_CODE_VERSION`` bump (or a release) makes stale entries
    unreachable, exactly like the results store.
    """
    payload = {
        "format": COMPILED_FORMAT,
        "code_version": version if version is not None else code_version(),
        "benchmark": benchmark,
        "scale": scale,
        "n_nodes": n_nodes,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class CompiledGraphStore:
    """A directory of content-addressed compiled graphs (``.npz`` + sidecar).

    Entries live under ``<root>/compiled/<key[:2]>/`` as ``<key>.npz`` (the
    arrays) plus ``<key>.json`` (provenance: benchmark, scale, node count,
    code version, sizes).  Writes are atomic (temp file + ``os.replace``, the
    sidecar last), so a torn write leaves at worst an orphan the next ``gc``
    collects, and concurrent workers compiling the same graph race benignly.
    """

    #: Subdirectory of the cache root holding compiled graphs.
    SUBDIR = "compiled"

    def __init__(self, root: Optional[str] = None) -> None:
        if root is None:
            root = settings.get("REPRO_CACHE_DIR")
        self.root = os.path.join(os.path.abspath(root), self.SUBDIR)

    # -- paths ----------------------------------------------------------------

    def path_for(self, key: str) -> str:
        """The ``.npz`` file of a key."""
        return os.path.join(self.root, key[:2], key + ".npz")

    def meta_path_for(self, key: str) -> str:
        """The sidecar metadata file of a key."""
        return os.path.join(self.root, key[:2], key + ".json")

    def key(
        self, benchmark: str, scale: float, n_nodes: Optional[int] = None
    ) -> str:
        """The content hash of a graph configuration (see :func:`compiled_key`)."""
        return compiled_key(benchmark, scale, n_nodes)

    # -- read -----------------------------------------------------------------

    def load(
        self,
        benchmark: str,
        scale: float,
        n_nodes: Optional[int] = None,
        mmap: bool = True,
    ) -> Optional[CompiledGraph]:
        """The compiled graph of a configuration, or ``None`` on miss.

        A present-but-unreadable entry (truncated arrays, bad sidecar,
        failed invariants) is quarantined and reported as a miss, so callers
        simply recompile.
        """
        key = self.key(benchmark, scale, n_nodes)
        path = self.path_for(key)
        meta_path = self.meta_path_for(key)
        if not (os.path.exists(path) and os.path.exists(meta_path)):
            return None
        try:
            arrays = load_npz_arrays(path, mmap=mmap)
            compiled = CompiledGraph(**{f: arrays[f] for f in ARRAY_FIELDS})
            compiled.validate()
        except (
            KeyError,
            ValueError,
            OSError,
            zipfile.BadZipFile,
            # A torn zip need not fail cleanly: corruption overlapping the
            # central directory can make ``np.load`` hand back raw ``bytes``
            # for a member (no ``.shape`` → AttributeError in validate), and
            # truncation inside a header surfaces as EOFError/struct.error
            # from the zip machinery.  All of it is the same condition — an
            # interrupted or damaged write — so it all quarantines.
            AttributeError,
            EOFError,
            struct.error,
        ):
            self._quarantine(key)
            return None
        return compiled

    def contains(
        self, benchmark: str, scale: float, n_nodes: Optional[int] = None
    ) -> bool:
        """Whether a loadable entry exists for a configuration."""
        key = self.key(benchmark, scale, n_nodes)
        return os.path.exists(self.path_for(key)) and os.path.exists(
            self.meta_path_for(key)
        )

    # -- write ----------------------------------------------------------------

    def save(
        self,
        benchmark: str,
        scale: float,
        compiled: CompiledGraph,
        n_nodes: Optional[int] = None,
        elapsed_s: Optional[float] = None,
    ) -> str:
        """Persist one compiled graph; returns its key.

        The ``.npz`` is written before the sidecar, and both atomically, so a
        reader never observes a sidecar without its arrays.
        """
        key = self.key(benchmark, scale, n_nodes)
        path = self.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = unique_tmp_path(path)
        with open(tmp, "wb") as fh:
            write_npz_deterministic(fh, {f: getattr(compiled, f) for f in ARRAY_FIELDS})
        os.replace(tmp, path)
        meta = {
            "format": COMPILED_FORMAT,
            "key": key,
            "benchmark": benchmark,
            "scale": scale,
            "n_nodes": n_nodes,
            "workload": is_workload_benchmark_name(benchmark),
            "code_version": code_version(),
            "created_at": time.time(),
            "elapsed_s": elapsed_s,
            "n_tasks": compiled.n,
            "n_edges": compiled.n_edges,
            "nbytes": compiled.nbytes,
        }
        meta_tmp = unique_tmp_path(self.meta_path_for(key))
        with open(meta_tmp, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
        os.replace(meta_tmp, self.meta_path_for(key))
        return key

    def _quarantine(self, key: str) -> int:
        """Best-effort removal of one entry (arrays + sidecar).

        Returns the number of paths that could *not* be removed (a missing
        file is not a failure) so callers surface the count instead of
        silently leaving the entry behind.
        """
        failed = 0
        for path in (self.path_for(key), self.meta_path_for(key)):
            try:
                os.remove(path)
            except FileNotFoundError:
                pass
            except OSError:
                failed += 1
        return failed

    # -- maintenance -----------------------------------------------------------

    def _meta_paths(self) -> List[str]:
        """Every sidecar file currently on disk, in stable (sharded) order."""
        paths: List[str] = []
        if not os.path.isdir(self.root):
            return paths
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json") and ".tmp." not in name:
                    paths.append(os.path.join(shard_dir, name))
        return paths

    def entries(self) -> Iterator[Dict[str, Any]]:
        """Iterate the metadata of every valid entry (corrupt ones skipped)."""
        for meta_path in self._meta_paths():
            try:
                with open(meta_path, "r", encoding="utf-8") as fh:
                    meta = json.load(fh)
            except (OSError, ValueError):
                continue
            if not isinstance(meta, dict) or "key" not in meta:
                continue
            yield meta

    def ls(self) -> List[Dict[str, Any]]:
        """One summary dict per entry (for ``repro cache ls``)."""
        rows: List[Dict[str, Any]] = []
        for meta in self.entries():
            rows.append(
                {
                    "key": str(meta.get("key", "?"))[:12],
                    "benchmark": meta.get("benchmark", "?"),
                    "scale": meta.get("scale", "?"),
                    "n_nodes": meta.get("n_nodes"),
                    "n_tasks": meta.get("n_tasks", "?"),
                    "n_edges": meta.get("n_edges", "?"),
                    "nbytes": meta.get("nbytes", 0),
                    "workload": bool(meta.get("workload", False)),
                    "code_version": meta.get("code_version", "?"),
                    "created_at": meta.get("created_at", 0.0),
                }
            )
        return rows

    def stats(self) -> Dict[str, Any]:
        """Aggregate store statistics (entry count, bytes, versions, workloads).

        ``unreadable`` counts sidecars that exist but cannot be read or
        parsed, and ``missing_arrays`` counts valid sidecars whose ``.npz``
        cannot be sized — both previously dropped without a trace, which made
        a half-broken store indistinguishable from a healthy one.
        """
        n_entries = 0
        n_bytes = 0
        n_workloads = 0
        unreadable = 0
        missing_arrays = 0
        versions: Dict[str, int] = {}
        for meta_path in self._meta_paths():
            try:
                with open(meta_path, "r", encoding="utf-8") as fh:
                    meta = json.load(fh)
            except (OSError, ValueError):
                unreadable += 1
                continue
            if not isinstance(meta, dict) or "key" not in meta:
                unreadable += 1
                continue
            n_entries += 1
            if meta.get("workload"):
                n_workloads += 1
            versions[str(meta.get("code_version"))] = (
                versions.get(str(meta.get("code_version")), 0) + 1
            )
            try:
                n_bytes += os.path.getsize(self.path_for(meta["key"]))
            except OSError:
                missing_arrays += 1
        return {
            "root": self.root,
            "entries": n_entries,
            "bytes": n_bytes,
            "workloads": n_workloads,
            "code_versions": versions,
            "unreadable": unreadable,
            "missing_arrays": missing_arrays,
        }

    def gc(self, workload_max_age_s: Optional[float] = None) -> Dict[str, int]:
        """Drop stale entries (wrong code version), orphans and temp files.

        ``workload_max_age_s`` additionally ages out compiled *workload*
        graphs older than the limit (counted as ``aged``): the synthetic-spec
        space is unbounded, so one-off sweeps would otherwise accumulate
        orphaned entries forever.  ``None`` (the library default) disables
        aging; the CLI passes ``--workload-max-age`` or
        :data:`DEFAULT_WORKLOAD_MAX_AGE_S`.  Table I entries never age.

        The summary's ``skipped`` counts paths that should have been removed
        but could not be (permissions, a directory squatting on an entry
        path, ...): a nonzero value means the store still holds garbage.
        """
        current = code_version()
        now = time.time()
        removed_stale = 0
        removed_orphan = 0
        removed_tmp = 0
        removed_aged = 0
        skipped = 0
        if not os.path.isdir(self.root):
            return {"stale": 0, "orphan": 0, "tmp": 0, "aged": 0, "skipped": 0}
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            names = sorted(os.listdir(shard_dir))
            sidecars = {n for n in names if n.endswith(".json") and ".tmp." not in n}
            for name in names:
                path = os.path.join(shard_dir, name)
                if ".tmp." in name:
                    try:
                        os.remove(path)
                        removed_tmp += 1
                    except OSError:
                        skipped += 1
                    continue
                if name.endswith(".npz"):
                    if name[: -len(".npz")] + ".json" not in sidecars:
                        try:
                            os.remove(path)
                            removed_orphan += 1
                        except OSError:
                            skipped += 1
                    continue
                if not name.endswith(".json"):
                    continue
                key = name[: -len(".json")]
                try:
                    with open(path, "r", encoding="utf-8") as fh:
                        meta = json.load(fh)
                    version = meta.get("code_version")
                except (OSError, ValueError, AttributeError):
                    meta = {}
                    version = None
                if version != current:
                    failed = self._quarantine(key)
                    skipped += failed
                    if failed == 0:
                        removed_stale += 1
                    continue
                if (
                    workload_max_age_s is not None
                    and meta.get("workload")
                    and now - float(meta.get("created_at", 0.0)) > workload_max_age_s
                ):
                    failed = self._quarantine(key)
                    skipped += failed
                    if failed == 0:
                        removed_aged += 1
            if os.path.isdir(shard_dir) and not os.listdir(shard_dir):
                try:
                    os.rmdir(shard_dir)
                except OSError:
                    pass
        return {
            "stale": removed_stale,
            "orphan": removed_orphan,
            "tmp": removed_tmp,
            "aged": removed_aged,
            "skipped": skipped,
        }

    def clear(self) -> int:
        """Delete every entry (the root directory itself is kept). Returns count."""
        removed = 0
        for meta in list(self.entries()):
            self._quarantine(meta["key"])
            removed += 1
        self.gc()
        return removed
