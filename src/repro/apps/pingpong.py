"""Pingpong: computation and communication between pairs of processes (Table I).

Paper configuration: arrays of 65536 doubles, 1024-element blocks.  Nodes are
paired; each iteration a node computes on its blocks, sends them to its
partner, the partner computes on them and sends them back.  Tasks are small
and numerous, and every other dependency crosses nodes — the benchmark mostly
measures how well the runtime (and replication) tolerates communication.
"""

from __future__ import annotations

from repro.apps import kernels
from repro.apps.base import Benchmark
from repro.runtime.runtime import TaskRuntime

DOUBLE = kernels.DOUBLE


class PingpongBenchmark(Benchmark):
    """Pairwise compute + exchange between nodes."""

    name = "pingpong"
    description = "Computation and communication between pairs of processes"
    distributed = True

    def __init__(
        self,
        array_elements: int = 65536,
        block_elements: int = 1024,
        n_nodes: int = 64,
        iterations: int = 200,
        core_flops: float = kernels.DEFAULT_CORE_FLOPS,
    ) -> None:
        super().__init__()
        if array_elements % block_elements:
            raise ValueError("array_elements must be a multiple of block_elements")
        if n_nodes % 2:
            raise ValueError("pingpong needs an even number of nodes")
        self.array_elements = array_elements
        self.block_elements = block_elements
        self.n_blocks = array_elements // block_elements
        self.n_nodes = n_nodes
        self.iterations = iterations
        self.core_flops = core_flops

    @classmethod
    def from_scale(cls, scale: float = 1.0) -> "PingpongBenchmark":
        """Table I at ``scale=1``; smaller scales reduce nodes and iterations."""
        n_nodes = max(4, 2 * int(round(32 * min(1.0, scale * 4))))
        iterations = max(2, int(round(200 * scale)))
        return cls(n_nodes=n_nodes, iterations=iterations)

    @property
    def input_bytes(self) -> float:
        """Total input footprint in bytes (Table I's "input MiB" column)."""
        # One array per pair of nodes.
        return (self.n_nodes / 2) * self.array_elements * DOUBLE

    @property
    def problem_label(self) -> str:
        """Human-readable problem-size label (Table I's "problem" column)."""
        return f"Array size {self.array_elements} doubles"

    @property
    def block_label(self) -> str:
        """Human-readable block/granularity label (Table I's "block" column)."""
        return f"{self.block_elements}"

    def _build(self, runtime: TaskRuntime) -> None:
        """Submit alternating ping/pong compute tasks between node pairs."""
        block_bytes = float(self.block_elements * DOUBLE)
        n_pairs = self.n_nodes // 2
        # Each pair ping-pongs a subset of the blocks to keep the task count in
        # the paper's "fine and numerous" regime without exploding memory.
        blocks_per_pair = max(1, self.n_blocks // n_pairs)

        # Each side performs a substantial computation on the block before
        # bouncing it back (the benchmark overlaps computation and
        # communication); a few hundred flops per element.
        t_compute = kernels.duration_for_flops(500.0 * self.block_elements, self.core_flops)

        for pair in range(n_pairs):
            node_a = 2 * pair
            node_b = 2 * pair + 1
            buf = runtime.register_region(f"buffer[{pair}]", blocks_per_pair * block_bytes)
            for it in range(self.iterations):
                for blk in range(blocks_per_pair):
                    region = buf.region(offset=blk * block_bytes, size_bytes=block_bytes)
                    runtime.submit(
                        task_type="ping_compute",
                        inout=[region],
                        duration_s=t_compute,
                        node=node_a,
                        metadata={"pair": pair, "iter": it, "block": blk},
                    )
                    runtime.submit(
                        task_type="pong_compute",
                        inout=[region],
                        duration_s=t_compute,
                        node=node_b,
                        metadata={"pair": pair, "iter": it, "block": blk},
                    )
