"""Perlin Noise: noise generation over an array of pixels (Table I).

Paper configuration: 65536 pixels, 2048-pixel blocks.  The benchmark generates
noise frame after frame (the paper's motivation is motion-picture realism), so
the task stream is a long sequence of fine-grained per-block tasks — the
"many fine tasks" end of the paper's granularity spectrum — plus one
frame-setup task per frame that touches the whole pixel buffer (the "few tasks
whose reliability impact is much higher" the paper calls out for Perlin).
"""

from __future__ import annotations

import numpy as np

from repro.apps import kernels
from repro.apps.base import Benchmark
from repro.runtime.runtime import TaskRuntime

#: Bytes per pixel (RGBA floats in the BSC kernel).
PIXEL_BYTES = 4


class PerlinNoiseBenchmark(Benchmark):
    """Frame-by-frame Perlin noise generation over a pixel buffer."""

    name = "perlin"
    description = "Noise generation to improve realism in motion pictures"
    distributed = False

    def __init__(
        self,
        n_pixels: int = 65536,
        block_size: int = 2048,
        frames: int = 800,
        setup_every: int = 100,
        core_flops: float = kernels.DEFAULT_CORE_FLOPS,
    ) -> None:
        super().__init__()
        if n_pixels % block_size:
            raise ValueError("n_pixels must be a multiple of block_size")
        if frames < 1:
            raise ValueError("frames must be >= 1")
        self.n_pixels = n_pixels
        self.block_size = block_size
        self.n_blocks = n_pixels // block_size
        self.frames = frames
        self.setup_every = max(1, setup_every)
        self.core_flops = core_flops

    @classmethod
    def from_scale(cls, scale: float = 1.0) -> "PerlinNoiseBenchmark":
        """Table I at ``scale=1``; smaller scales reduce the frame count."""
        frames = max(2, int(round(800 * scale)))
        return cls(frames=frames)

    @property
    def input_bytes(self) -> float:
        """Total input footprint in bytes (Table I's "input MiB" column)."""
        return float(self.n_pixels) * PIXEL_BYTES

    @property
    def problem_label(self) -> str:
        """Human-readable problem-size label (Table I's "problem" column)."""
        return f"Array of pixels with size of {self.n_pixels}"

    @property
    def block_label(self) -> str:
        """Human-readable block/granularity label (Table I's "block" column)."""
        return f"{self.block_size}"

    def _build(self, runtime: TaskRuntime) -> None:
        """Submit per-frame setup tasks followed by independent noise blocks."""
        block_bytes = float(self.block_size * PIXEL_BYTES)
        buffer_handle = runtime.register_region("pixels", self.input_bytes)
        gradient_handle = runtime.register_region("gradients", 256 * 2 * 8)

        # Multi-octave gradient noise costs a few hundred flops per pixel.
        t_block = kernels.duration_for_flops(400.0 * self.block_size, self.core_flops)
        t_setup = kernels.duration_for_flops(50.0 * self.n_pixels, self.core_flops)

        for frame in range(self.frames):
            if frame % self.setup_every == 0:
                runtime.submit(
                    task_type="frame_setup",
                    inout=[buffer_handle.whole(), gradient_handle.whole()],
                    duration_s=t_setup,
                    metadata={"frame": frame},
                )
            for b in range(self.n_blocks):
                region = buffer_handle.region(offset=b * block_bytes, size_bytes=block_bytes)
                runtime.submit(
                    task_type="perlin_block",
                    in_=[gradient_handle.whole()],
                    inout=[region],
                    duration_s=t_block,
                    metadata={"frame": frame, "block": b},
                )

    # -- functional mode ----------------------------------------------------------

    def functional_run(self, n_workers: int = 2, hook=None, n_pixels: int = 8192, block_size: int = 1024, frames: int = 4):
        """Generate a few frames of noise with real NumPy kernels.

        Returns ``(result, pixel_array)``.
        """
        if n_pixels % block_size:
            raise ValueError("n_pixels must be a multiple of block_size")
        nb = n_pixels // block_size
        runtime = self.functional_runtime(n_workers=n_workers, hook=hook)
        pixels = np.zeros(n_pixels, dtype=np.float64)
        handle = runtime.register_array("pixels", pixels)
        elem_bytes = pixels.itemsize

        for frame in range(frames):
            for b in range(nb):
                region = handle.region(
                    offset=b * block_size * elem_bytes, size_bytes=block_size * elem_bytes
                )

                def body(buf, lo=b * block_size, hi=(b + 1) * block_size, phase=float(frame)):
                    kernels.kernel_perlin_block(buf[lo:hi], phase)

                runtime.submit(body, task_type="perlin_block", inout=[region])
        result = runtime.taskwait()
        return result, handle.storage
