"""Parameterizable synthetic workload for ablation studies.

Lets a benchmark fix the total checkpoint size and vary one axis at a
time: chunk size (the X3 chunk-size-sensitivity ablation explaining
CM1 vs GTC) or hot-chunk fraction (the X2 CPC/DCPC/DCPCP ablation).
"""

from __future__ import annotations

from typing import List

from ..units import MB
from .base import ApplicationModel, ChunkSpec, WritePattern

__all__ = ["SyntheticModel"]


class SyntheticModel(ApplicationModel):
    name = "synthetic"

    def __init__(
        self,
        checkpoint_mb_per_rank: float = 400.0,
        *,
        chunk_mb: float = 50.0,
        hot_fraction: float = 0.0,
        write_once_fraction: float = 0.0,
        iteration_compute_time: float = 40.0,
        comm_mb_per_iteration: float = 0.0,
        comm_bursts: int = 4,
    ) -> None:
        """``chunk_mb`` sets a uniform chunk size; ``hot_fraction`` /
        ``write_once_fraction`` carve byte shares for hot and
        write-once chunks out of the total."""
        super().__init__(checkpoint_mb_per_rank)
        if chunk_mb <= 0:
            raise ValueError("chunk_mb must be positive")
        if not 0.0 <= hot_fraction + write_once_fraction <= 1.0:
            raise ValueError("hot + write_once fractions must stay within [0, 1]")
        self.chunk_mb = chunk_mb
        self.hot_fraction = hot_fraction
        self.write_once_fraction = write_once_fraction
        self.iteration_compute_time = iteration_compute_time
        self.comm_bytes_per_iteration = MB(comm_mb_per_iteration)
        self.comm_bursts = comm_bursts

    def chunk_specs(self) -> List[ChunkSpec]:
        if self._specs is not None:
            return self._specs
        total = MB(self.checkpoint_mb_per_rank)
        size = MB(self.chunk_mb)
        n_chunks = max(1, total // size)
        n_hot = round(n_chunks * self.hot_fraction)
        n_once = round(n_chunks * self.write_once_fraction)
        specs: List[ChunkSpec] = []
        for i in range(n_chunks):
            if i < n_hot:
                pattern, frac = WritePattern.HOT, None
            elif i < n_hot + n_once:
                pattern, frac = WritePattern.WRITE_ONCE, None
            else:
                pattern = WritePattern.PER_ITER
                frac = (0.2 + 0.5 * (i / max(1, n_chunks - 1)),)
            specs.append(ChunkSpec(f"chunk_{i}", size, pattern, fractions=frac))
        self._specs = specs
        return specs
