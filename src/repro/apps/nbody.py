"""Nbody: all-pairs gravitational interaction (Table I, distributed).

Paper configuration: 65536 bodies; the block size depends on the node count
(each node owns one block of bodies).  Per time step, every block computes the
forces exerted on it by every block (one coarse task per block pair) and then
integrates its bodies.  Force tasks reading a remote block generate inter-node
communication in the simulator.
"""

from __future__ import annotations

from repro.apps import kernels
from repro.apps.base import Benchmark
from repro.runtime.runtime import TaskRuntime

#: Bytes per body: position + velocity + mass as doubles (7 x 8 rounded to 64).
BODY_BYTES = 64


class NbodyBenchmark(Benchmark):
    """All-pairs N-body interaction, block-distributed across nodes."""

    name = "nbody"
    description = "Interaction between N bodies"
    distributed = True

    def __init__(
        self,
        n_bodies: int = 65536,
        n_nodes: int = 64,
        n_blocks: int = 64,
        timesteps: int = 4,
        core_flops: float = kernels.DEFAULT_CORE_FLOPS,
    ) -> None:
        super().__init__()
        if n_bodies % n_blocks:
            raise ValueError("n_bodies must be a multiple of n_blocks")
        self.n_bodies = n_bodies
        self.n_nodes = n_nodes
        self.n_body_blocks = n_blocks
        self.block_bodies = n_bodies // n_blocks
        self.timesteps = timesteps
        self.core_flops = core_flops

    @classmethod
    def from_scale(cls, scale: float = 1.0) -> "NbodyBenchmark":
        """Table I at ``scale=1``; smaller scales reduce nodes and time steps."""
        import math

        n_nodes = max(4, int(round(64 * scale)))
        # Keep the block count a power of two so it always divides 65536 bodies.
        n_blocks = int(2 ** round(math.log2(max(8, 64 * scale))))
        timesteps = max(1, int(round(4 * scale)))
        return cls(n_bodies=65536, n_nodes=n_nodes, n_blocks=n_blocks, timesteps=timesteps)

    @property
    def input_bytes(self) -> float:
        """Total input footprint in bytes (Table I's "input MiB" column)."""
        return float(self.n_bodies) * BODY_BYTES

    @property
    def problem_label(self) -> str:
        """Human-readable problem-size label (Table I's "problem" column)."""
        return f"Array size {self.n_bodies} bodies"

    @property
    def block_label(self) -> str:
        """Human-readable block/granularity label (Table I's "block" column)."""
        return f"{self.block_bodies} bodies per block ({self.n_nodes} nodes)"

    def _build(self, runtime: TaskRuntime) -> None:
        """Submit the timestep loop: all-pairs force tasks, then position updates."""
        nb = self.n_body_blocks
        block_bytes = float(self.block_bodies * BODY_BYTES)
        partial_force_bytes = float(self.block_bodies * 3 * 8)

        positions = {
            i: runtime.register_region(f"bodies[{i}]", block_bytes) for i in range(nb)
        }
        # Each block accumulates one partial-force buffer per source block so
        # the nb x nb force tasks are independent (a reduction pattern).
        forces = {
            i: runtime.register_region(f"forces[{i}]", nb * partial_force_bytes)
            for i in range(nb)
        }

        # ~20 flops per interacting pair.
        t_forces = kernels.duration_for_flops(
            20.0 * self.block_bodies * self.block_bodies, self.core_flops
        )
        t_update = kernels.duration_for_flops(
            12.0 * self.block_bodies + 3.0 * self.block_bodies * nb, self.core_flops
        )

        for step in range(self.timesteps):
            for i in range(nb):
                for j in range(nb):
                    partial = forces[i].region(
                        offset=j * partial_force_bytes, size_bytes=partial_force_bytes
                    )
                    runtime.submit(
                        task_type="forces",
                        in_=[positions[i].whole(), positions[j].whole()],
                        out=[partial],
                        duration_s=t_forces,
                        node=i % self.n_nodes,
                        metadata={"step": step, "i": i, "j": j},
                    )
            for i in range(nb):
                runtime.submit(
                    task_type="update",
                    in_=[forces[i].whole()],
                    inout=[positions[i].whole()],
                    duration_s=t_update,
                    node=i % self.n_nodes,
                    metadata={"step": step, "i": i},
                )
