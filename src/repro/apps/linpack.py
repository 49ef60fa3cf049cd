"""Linpack (HPL): LU factorisation with panel broadcast and trailing updates
(Table I, distributed).

Paper configuration: matrix order 131072, block size 256, 8x8 process grid.
The generator follows the canonical HPL phase structure per panel ``k``:

* ``panel_factor`` — factorise panel ``k`` on the node owning it,
* ``panel_bcast``  — broadcast the factored panel along the process-grid rows,
* ``update``       — every node updates its local share of the trailing matrix.

Panel sizes, argument sizes and durations shrink as the factorisation
progresses, so Linpack has a wide spread of task weights — which is why the
paper sees a noticeable difference between the fraction of tasks replicated
and the fraction of computation time replicated for this benchmark.
"""

from __future__ import annotations

from typing import Dict

from repro.apps import kernels
from repro.apps.base import Benchmark
from repro.distributed.mapping import BlockCyclicMapping
from repro.runtime.runtime import TaskRuntime

DOUBLE = kernels.DOUBLE


class LinpackBenchmark(Benchmark):
    """HPL-style distributed LU factorisation."""

    name = "linpack"
    description = "HPL Linpack"
    distributed = True

    def __init__(
        self,
        matrix_size: int = 131072,
        block_size: int = 256,
        grid_rows: int = 8,
        grid_cols: int = 8,
        update_chunks_per_node: int = 4,
        core_flops: float = kernels.DEFAULT_CORE_FLOPS,
    ) -> None:
        super().__init__()
        if matrix_size % block_size:
            raise ValueError("matrix_size must be a multiple of block_size")
        if update_chunks_per_node < 1:
            raise ValueError("update_chunks_per_node must be >= 1")
        self.matrix_size = matrix_size
        self.block_size = block_size
        self.n_panels = matrix_size // block_size
        self.mapping = BlockCyclicMapping(grid_rows, grid_cols)
        self.update_chunks_per_node = update_chunks_per_node
        self.core_flops = core_flops

    @classmethod
    def from_scale(cls, scale: float = 1.0) -> "LinpackBenchmark":
        """Table I at ``scale=1``; smaller scales shrink the panel count and grid."""
        n_panels = max(8, int(round(512 * scale)))
        grid = 8 if scale >= 0.5 else 4
        return cls(matrix_size=n_panels * 256, block_size=256, grid_rows=grid, grid_cols=grid)

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the process grid."""
        return self.mapping.n_nodes

    @property
    def input_bytes(self) -> float:
        """Total input footprint in bytes (Table I's "input MiB" column)."""
        return float(self.matrix_size) ** 2 * DOUBLE

    @property
    def problem_label(self) -> str:
        """Human-readable problem-size label (Table I's "problem" column)."""
        return f"Matrix size {self.matrix_size} doubles"

    @property
    def block_label(self) -> str:
        """Human-readable block/granularity label (Table I's "block" column)."""
        return f"{self.block_size}, {self.mapping.grid_rows}x{self.mapping.grid_cols} grid"

    def _build(self, runtime: TaskRuntime) -> None:
        """Submit the blocked LU sweep: panel factor, broadcast, trailing updates."""
        n = self.matrix_size
        bs = self.block_size
        n_panels = self.n_panels
        n_nodes = self.n_nodes
        grid_cols = self.mapping.grid_cols

        # Each node's share of the matrix (updated in place step after step).
        local_bytes = float(n) * n * DOUBLE / n_nodes
        local = {
            node: runtime.register_region(f"local[{node}]", local_bytes)
            for node in range(n_nodes)
        }

        for k in range(n_panels):
            trailing = n - k * bs
            panel_bytes = float(trailing * bs * DOUBLE)
            owner = self.mapping.owner(k, k)
            owner_col = owner % grid_cols

            # The panel factorisation is distributed over the process-grid rows
            # (as HPL does): each row-share of the panel is factored by the node
            # owning it, in parallel.
            panel = runtime.register_region(f"panel[{k}]", panel_bytes)
            grid_rows = self.mapping.grid_rows
            share_bytes = panel_bytes / grid_rows
            t_factor = kernels.duration_for_flops(
                2.0 * trailing * bs * bs / grid_rows, self.core_flops
            )
            owner_share_bytes = float(trailing) * bs * DOUBLE / grid_rows
            for row in range(grid_rows):
                factor_node = row * grid_cols + owner_col
                runtime.submit(
                    task_type="panel_factor",
                    in_=[
                        local[factor_node].region(offset=0.0, size_bytes=owner_share_bytes)
                    ],
                    out=[panel.region(offset=row * share_bytes, size_bytes=share_bytes)],
                    duration_s=t_factor,
                    node=factor_node,
                    metadata={"k": k, "row": row, "mem_bytes": share_bytes},
                )

            copies: Dict[int, object] = {}
            t_bcast = kernels.duration_for_flops(panel_bytes / 8.0, self.core_flops)
            for col in range(grid_cols):
                dest_node = (k % self.mapping.grid_rows) * grid_cols + col
                copy = runtime.register_region(f"panel_copy[{k}][{col}]", panel_bytes)
                copies[col] = copy
                runtime.submit(
                    task_type="panel_bcast",
                    in_=[panel.whole()],
                    out=[copy.whole()],
                    duration_s=t_bcast,
                    node=dest_node,
                    metadata={"k": k, "col": col, "mem_bytes": 2.0 * panel_bytes},
                )

            # Trailing-matrix update: every node updates its local share, split
            # into a few independent column chunks so a node's cores have
            # parallel work within one step (as the tiled HPL update does).
            chunks = self.update_chunks_per_node
            local_trailing_flops = 2.0 * float(trailing) * trailing * bs / n_nodes
            t_update = kernels.duration_for_flops(local_trailing_flops / chunks, self.core_flops)
            local_touch_bytes = float(trailing) * trailing * DOUBLE / n_nodes
            chunk_bytes = local_touch_bytes / chunks
            for node in range(n_nodes):
                col = node % grid_cols
                for chunk in range(chunks):
                    runtime.submit(
                        task_type="update",
                        in_=[copies[col].whole()],
                        inout=[
                            local[node].region(
                                offset=chunk * chunk_bytes, size_bytes=chunk_bytes
                            )
                        ],
                        duration_s=t_update,
                        node=node,
                        metadata={"k": k, "node": node, "chunk": chunk, "mem_bytes": chunk_bytes},
                    )
