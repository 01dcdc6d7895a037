"""Checkpoint compression for remote transfers (extension).

The related work cites mcrengine (Islam et al., SC'12): compressing
checkpoint data before it leaves the node trades helper CPU for
interconnect volume.  This module adds that trade to the remote path:

* for **real-payload** chunks the model measures the *actual*
  compressibility through the codec layer's shared
  :class:`~repro.core.codec.EntropyProbe` (zlib level 1 over a bounded
  sample — an LZ-class fast codec stand-in), cached per chunk
  **incarnation**: the old ``(chunk_id, total_mods)`` cache could hand
  a freed-and-reallocated chunk (or one restored/migrated at restart)
  the ratio measured on a *different* buffer that happened to share its
  id and mod count;
* for **phantom** chunks a configured ratio applies (HPC checkpoint
  studies report ~1.2-2x for double-precision state);
* compression/decompression CPU time is charged at LZ-class
  throughputs to the sending helper and the receiving buddy.

Wire format bookkeeping only — payloads are stored decompressed on the
buddy, exactly as the replication protocol expects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..alloc.chunk import Chunk
from .codec import EntropyProbe

__all__ = ["CompressionModel"]


@dataclass
class CompressionModel:
    """Compressibility + CPU-cost model for checkpoint payloads."""

    #: assumed compressed/original ratio for phantom (size-only) chunks
    phantom_ratio: float = 0.6
    #: compression throughput (LZ-class fast codec), bytes/second
    compress_rate: float = 1.5e9
    #: decompression throughput, bytes/second
    decompress_rate: float = 4.0e9
    #: measurement backend; pass the codec layer's probe to share its
    #: cache, or leave ``None`` for a private one
    probe: Optional[EntropyProbe] = None
    #: accounting
    bytes_in: int = 0
    bytes_out: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.phantom_ratio <= 1.0:
            raise ValueError("phantom_ratio must be in (0, 1]")
        if self.compress_rate <= 0 or self.decompress_rate <= 0:
            raise ValueError("codec rates must be positive")
        if self.probe is None:
            self.probe = EntropyProbe(default_ratio=self.phantom_ratio)

    # ------------------------------------------------------------------
    # Ratios.
    # ------------------------------------------------------------------

    def ratio_for(self, chunk: Chunk) -> float:
        """Compressed/original ratio for the chunk's current payload.

        Measured ratios are cached keyed by ``(incarnation,
        total_mods)``, so a ratio can never outlive the buffer it was
        measured on (free/realloc, restore-from-committed and lazy
        restart migration all bump the incarnation)."""
        if chunk.phantom or chunk.dram is None:
            return self.phantom_ratio
        return self.probe.ratio_for(chunk)

    def wire_bytes(self, chunk: Chunk) -> int:
        """Bytes that actually cross the fabric for *chunk*."""
        wire = max(1, int(chunk.nbytes * self.ratio_for(chunk)))
        self.bytes_in += chunk.nbytes
        self.bytes_out += wire
        return wire

    # ------------------------------------------------------------------
    # CPU costs.
    # ------------------------------------------------------------------

    def compress_cost(self, nbytes: int) -> float:
        """Sender-side CPU seconds to compress *nbytes*."""
        return nbytes / self.compress_rate

    def decompress_cost(self, nbytes: int) -> float:
        """Receiver-side CPU seconds to decompress back to *nbytes*."""
        return nbytes / self.decompress_rate
