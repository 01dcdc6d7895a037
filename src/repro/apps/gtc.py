"""GTC — Gyrokinetic Toroidal Code workload model.

Paper facts encoded here:

* checkpoint data is dominated by 2-D particle arrays (ions and
  electrons); per-rank checkpoint size in the remote experiments is
  ~433 MB;
* Table IV byte shares: ~45% in 0.5-1 MB chunks, ~9% in 10-20 MB,
  ~45% above 100 MB;
* "few large chunks (variables) are modified only once (during
  application initiation)" — so one of the large chunks is
  write-once, which is why pre-copy *shrinks* GTC's effective
  checkpoint size (Fig. 8);
* highly communication-intensive (toroidal domain decomposition with
  large halo exchanges).
"""

from __future__ import annotations

from typing import List

from ..units import MB
from .base import ApplicationModel, ChunkSpec, WritePattern

__all__ = ["GTCModel"]


class GTCModel(ApplicationModel):
    name = "gtc"
    iteration_compute_time = 40.0
    comm_bytes_per_iteration = MB(600)
    comm_bursts = 4

    def __init__(
        self, checkpoint_mb_per_rank: float = 433.0, small_chunks: int | None = None
    ) -> None:
        """``small_chunks`` overrides the number of chunks representing
        the 0.5-1 MB bucket; by default enough ~0.85 MB chunks to hold
        the bucket's byte share (faithful to Table IV, a few hundred
        per rank).  Experiments that only care about volume, not
        per-chunk overhead, pass a smaller count for speed."""
        super().__init__(checkpoint_mb_per_rank)
        self.small_chunks = small_chunks

    def chunk_specs(self) -> List[ChunkSpec]:
        if self._specs is not None:
            return self._specs
        D = MB(self.checkpoint_mb_per_rank)
        large_budget = int(0.45 * D)
        med_budget = int(0.09 * D)
        small_budget = D - large_budget - med_budget  # ~46%
        specs: List[ChunkSpec] = []
        # -- >100MB bucket: the 2-D particle array (rewritten each
        # iteration) and the static equilibrium profile (write-once).
        # At the paper's full scale both land above 100 MB; at reduced
        # experiment scales the 55/45 split simply shrinks with D.
        zion = int(large_budget * 0.55)
        if large_budget >= MB(200):
            zion = max(MB(100), zion)
        static = large_budget - zion
        specs.append(ChunkSpec("zion", zion, WritePattern.PER_ITER, fractions=(0.3, 0.55)))
        specs.append(ChunkSpec("equilibrium", static, WritePattern.WRITE_ONCE))
        # -- 10-20MB bucket: grid field arrays
        n_med = max(1, med_budget // MB(15))
        med_size = med_budget // n_med
        for i in range(n_med):
            specs.append(
                ChunkSpec(f"grid_field_{i}", med_size, WritePattern.PER_ITER, fractions=(0.45,))
            )
        # -- 0.5-1MB bucket: per-diagnostic arrays
        n_small = self.small_chunks or max(1, small_budget // MB(0.85))
        small_size = small_budget // n_small
        for i in range(n_small):
            specs.append(
                ChunkSpec(
                    f"diag_{i}",
                    small_size,
                    WritePattern.PER_ITER,
                    fractions=(0.25 + 0.5 * (i / max(1, n_small - 1)),),
                )
            )
        self._specs = specs
        return specs
