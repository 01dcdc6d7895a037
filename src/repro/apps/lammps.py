"""LAMMPS (Rhodopsin / RhodoSpin benchmark) workload model.

Paper facts encoded here:

* per-rank checkpoint size ~410 MB with 48 MPI processes;
* 31 checkpoint chunks, "modified across different application stages"
  (RhodoSpin was chosen for exactly this property);
* the 3-D result array with relative molecular positions is a **hot
  chunk**: modified until the end of every compute iteration (Fig. 6's
  example) — the DCPCP motivation;
* Table IV byte shares (weights 15/0/20/25 over the listed buckets):
  ~25% in 0.5-1 MB, ~33% in 50-100 MB, ~42% above 100 MB;
* pre-copy moves ~3% *extra* data (hot chunks re-copied) yet still
  cuts the checkpoint-induced slowdown from ~15% to ~6.5% (Fig. 7).
"""

from __future__ import annotations

from typing import List

from ..units import MB
from .base import ApplicationModel, ChunkSpec, WritePattern

__all__ = ["LammpsModel"]


class LammpsModel(ApplicationModel):
    name = "lammps"
    iteration_compute_time = 40.0
    comm_bytes_per_iteration = MB(400)
    comm_bursts = 4

    #: the paper reports 31 checkpoint chunks for Rhodo
    TOTAL_CHUNKS = 31

    def __init__(self, checkpoint_mb_per_rank: float = 410.0) -> None:
        super().__init__(checkpoint_mb_per_rank)

    def chunk_specs(self) -> List[ChunkSpec]:
        if self._specs is not None:
            return self._specs
        D = MB(self.checkpoint_mb_per_rank)
        large_budget = int(0.42 * D)  # >100MB
        mid_budget = int(0.33 * D)  # 50-100MB
        small_budget = D - large_budget - mid_budget  # ~25%
        specs: List[ChunkSpec] = []
        # -- hot 3-D molecular-position result array (>100MB): written
        # at stage boundaries and again just before the iteration ends
        specs.append(
            ChunkSpec("x_positions", large_budget, WritePattern.HOT,
                      fractions=(0.2, 0.45, 0.7, 0.97))
        )
        # -- 50-100MB bucket: force accumulators + neighbor lists,
        # rewritten at different stages
        specs.append(
            ChunkSpec("f_forces", mid_budget // 2, WritePattern.STAGED,
                      fractions=(0.15, 0.4, 0.65))
        )
        specs.append(
            ChunkSpec("neigh_list", mid_budget - mid_budget // 2, WritePattern.STAGED,
                      fractions=(0.1, 0.55, 0.8))
        )
        # -- 0.5-1MB bucket: the remaining 28 of the 31 chunks
        # (velocities, per-type tables, thermo state...), staged across
        # the iteration
        n_small = self.TOTAL_CHUNKS - len(specs)
        small_size = small_budget // n_small
        for i in range(n_small):
            frac = 0.1 + 0.75 * (i / max(1, n_small - 1))
            specs.append(
                ChunkSpec(f"aux_{i}", small_size, WritePattern.STAGED,
                          fractions=(frac, min(0.95, frac + 0.2)))
            )
        self._specs = specs
        return specs
