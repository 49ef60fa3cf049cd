"""Stream: McCalpin's memory-bandwidth benchmark, task-parallel version (Table I).

Paper configuration: 2048 x 2048 doubles per array (three arrays ``a``, ``b``,
``c``), 32768-element blocks.  Each iteration runs the four STREAM kernels
(copy, scale, add, triad) over every block.  The tasks are numerous, fine
grained and almost entirely memory bound — the benchmark the paper uses to
stress-test replication overheads and the one that does not scale even without
replication.
"""

from __future__ import annotations

import numpy as np

from repro.apps import kernels
from repro.apps.base import Benchmark
from repro.runtime.runtime import TaskRuntime

DOUBLE = kernels.DOUBLE


class StreamBenchmark(Benchmark):
    """Task-parallel STREAM (copy / scale / add / triad)."""

    name = "stream"
    description = "Linear operations among arrays"
    distributed = False

    def __init__(
        self,
        array_elements: int = 2048 * 2048,
        block_elements: int = 32768,
        iterations: int = 50,
        core_flops: float = kernels.DEFAULT_CORE_FLOPS,
    ) -> None:
        super().__init__()
        if array_elements % block_elements:
            raise ValueError("array_elements must be a multiple of block_elements")
        self.array_elements = array_elements
        self.block_elements = block_elements
        self.n_blocks = array_elements // block_elements
        self.iterations = iterations
        self.core_flops = core_flops

    @classmethod
    def from_scale(cls, scale: float = 1.0) -> "StreamBenchmark":
        """Table I at ``scale=1``; smaller scales reduce the iteration count."""
        iterations = max(2, int(round(50 * scale)))
        return cls(iterations=iterations)

    @property
    def input_bytes(self) -> float:
        """Total input footprint in bytes (Table I's "input MiB" column)."""
        return 3.0 * self.array_elements * DOUBLE

    @property
    def problem_label(self) -> str:
        """Human-readable problem-size label (Table I's "problem" column)."""
        return f"Array size 2048x2048 (doubles), {self.array_elements} elements per array"

    @property
    def block_label(self) -> str:
        """Human-readable block/granularity label (Table I's "block" column)."""
        return f"{self.block_elements}"

    def _build(self, runtime: TaskRuntime) -> None:
        """Submit the STREAM copy/scale/add/triad kernels over blocked arrays."""
        block_bytes = float(self.block_elements * DOUBLE)
        arrays = {
            name: runtime.register_region(name, self.array_elements * DOUBLE)
            for name in ("a", "b", "c")
        }

        def region(name: str, b: int):
            return arrays[name].region(offset=b * block_bytes, size_bytes=block_bytes)

        # STREAM kernels do ~1 flop per element; durations are tiny and the
        # memory footprint (2-3 blocks) dominates through the simulator's
        # bandwidth model.
        t_kernel = kernels.duration_for_flops(self.block_elements, self.core_flops)

        for it in range(self.iterations):
            for b in range(self.n_blocks):
                runtime.submit(
                    task_type="copy",
                    in_=[region("a", b)],
                    out=[region("c", b)],
                    duration_s=t_kernel,
                    metadata={"iter": it, "block": b, "mem_bytes": 2 * block_bytes},
                )
            for b in range(self.n_blocks):
                runtime.submit(
                    task_type="scale",
                    in_=[region("c", b)],
                    out=[region("b", b)],
                    duration_s=t_kernel,
                    metadata={"iter": it, "block": b, "mem_bytes": 2 * block_bytes},
                )
            for b in range(self.n_blocks):
                runtime.submit(
                    task_type="add",
                    in_=[region("a", b), region("b", b)],
                    out=[region("c", b)],
                    duration_s=t_kernel,
                    metadata={"iter": it, "block": b, "mem_bytes": 3 * block_bytes},
                )
            for b in range(self.n_blocks):
                runtime.submit(
                    task_type="triad",
                    in_=[region("b", b), region("c", b)],
                    out=[region("a", b)],
                    duration_s=t_kernel,
                    metadata={"iter": it, "block": b, "mem_bytes": 3 * block_bytes},
                )

    # -- functional mode -----------------------------------------------------------

    def functional_run(
        self,
        n_workers: int = 2,
        hook=None,
        array_elements: int = 16384,
        block_elements: int = 4096,
        iterations: int = 2,
        scalar: float = 3.0,
    ):
        """Run the four STREAM kernels on real arrays through the runtime.

        Returns ``(result, arrays)`` where ``arrays`` maps ``"a"/"b"/"c"`` to
        the final NumPy arrays; the expected closed-form values are easy to
        verify in tests.
        """
        if array_elements % block_elements:
            raise ValueError("array_elements must be a multiple of block_elements")
        nb = array_elements // block_elements
        runtime = self.functional_runtime(n_workers=n_workers, hook=hook)
        storage = {
            "a": np.full(array_elements, 1.0),
            "b": np.full(array_elements, 2.0),
            "c": np.zeros(array_elements),
        }
        handles = {k: runtime.register_array(k, v) for k, v in storage.items()}
        eb = storage["a"].itemsize

        def region(name, b):
            return handles[name].region(offset=b * block_elements * eb, size_bytes=block_elements * eb)

        for _ in range(iterations):
            for b in range(nb):
                lo, hi = b * block_elements, (b + 1) * block_elements

                def copy(a, c, lo=lo, hi=hi):
                    kernels.kernel_stream_copy(a[lo:hi], c[lo:hi])

                runtime.submit(copy, task_type="copy", in_=[region("a", b)], out=[region("c", b)])
            for b in range(nb):
                lo, hi = b * block_elements, (b + 1) * block_elements

                def scale(c, bb, lo=lo, hi=hi):
                    kernels.kernel_stream_scale(c[lo:hi], bb[lo:hi], scalar)

                runtime.submit(scale, task_type="scale", in_=[region("c", b)], out=[region("b", b)])
            for b in range(nb):
                lo, hi = b * block_elements, (b + 1) * block_elements

                def add(a, bb, c, lo=lo, hi=hi):
                    kernels.kernel_stream_add(a[lo:hi], bb[lo:hi], c[lo:hi])

                runtime.submit(
                    add, task_type="add", in_=[region("a", b), region("b", b)], out=[region("c", b)]
                )
            for b in range(nb):
                lo, hi = b * block_elements, (b + 1) * block_elements

                def triad(bb, c, a, lo=lo, hi=hi):
                    kernels.kernel_stream_triad(bb[lo:hi], c[lo:hi], a[lo:hi], scalar)

                runtime.submit(
                    triad, task_type="triad", in_=[region("b", b), region("c", b)], out=[region("a", b)]
                )
        result = runtime.taskwait()
        return result, {k: h.storage for k, h in handles.items()}
