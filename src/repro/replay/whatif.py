"""What-if replay: re-run a reconstructed schedule under a different
policy, copy granularity, bandwidth or threshold margin.

This is the *model* path — distinct from the faithful path, which is
exact by construction for the captured config.  The what-if runner
re-decides every chunk's fate per interval from the reconstructed
write epochs, using the same building blocks the live pipeline uses:

* the real :class:`~repro.core.threshold.ThresholdEstimator` (not a
  re-implementation) learns interval/data-size exactly as DCPC does,
  fed the reconstructed compute windows;
* DCPCP's hot-chunk withholding is an EMA over observed re-dirties,
  mirroring the prediction table's eligibility semantics;
* copy costs come from the trace's *observed* bandwidth (bytes over
  span seconds), scaled for bandwidth what-ifs.

What the model cannot know, it reports: replaying at page granularity
from a chunk-granular capture has no extent data (per-epoch moved
bytes fall back to the observed copies), and chunks a skipping policy
never copied have unknown sizes — the ``coverage`` field quantifies
how much of the catalog the trace actually sized.

The **codec axis** asks "what would delta/dedup have saved" of a raw
capture.  A raw trace carries no content, so the model uses the live
codec layer's wire arithmetic (per-block digest/header metadata, same
constants) driven by a *novelty* parameter — the fraction of a
re-shipped payload whose bytes genuinely changed, exactly the knob the
phantom content model uses live.  The first shipment of a chunk has no
base: every block is new, delta degenerates to full.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.codec import (
    DEFAULT_BLOCK,
    DEFAULT_NOVELTY,
    DELTA_HEADER_BYTES,
    DIGEST_META_BYTES,
    codec_names,
)
from ..core.copystep import CopyAccounting
from ..core.threshold import ThresholdEstimator
from ..errors import ConfigError
from .reconstruct import (
    ChunkActivity,
    IntervalRecord,
    RankWorkload,
    Workload,
    _logical,
)

__all__ = ["CodecEstimator", "WhatIfResult", "run_whatif"]

_MODES = ("none", "cpc", "dcpc", "dcpcp")

#: EMA weight for the DCPCP hot-chunk score (mirrors the prediction
#: table's default smoothing)
_HOT_SMOOTHING = 0.5
_HOT_CUTOFF = 0.5


class CodecEstimator:
    """Wire-byte model for replaying a payload codec over a raw trace.

    Tracks, per chunk, whether a prior shipment established a base
    version; charges the live codec layer's per-block metadata
    (:data:`~repro.core.codec.DIGEST_META_BYTES` /
    :data:`~repro.core.codec.DELTA_HEADER_BYTES`) and scales re-shipped
    content by *novelty*.  Wire never exceeds logical — same cap the
    live planners apply.
    """

    def __init__(
        self,
        codec: str,
        *,
        block: int = DEFAULT_BLOCK,
        novelty: float = DEFAULT_NOVELTY,
    ) -> None:
        if codec not in codec_names():
            raise ConfigError(
                f"unknown codec {codec!r}; choose from {codec_names()}"
            )
        if block <= 0:
            raise ConfigError("codec block size must be positive")
        if not 0.0 <= novelty <= 1.0:
            raise ConfigError("codec novelty must be in [0, 1]")
        self.codec = codec
        self.block = block
        self.novelty = novelty
        self.logical_bytes = 0
        self.wire_bytes = 0
        self._based: set = set()

    def ship(self, name: str, moved: int) -> int:
        """Model one payload of *moved* logical bytes for chunk *name*;
        returns the wire bytes and folds both into the totals."""
        if moved <= 0:
            return 0
        self.logical_bytes += moved
        if self.codec == "raw":
            self.wire_bytes += moved
            return moved
        blocks = -(-moved // self.block)
        first = name not in self._based
        new_content = moved if first else int(self.novelty * moved)
        dedup = min(moved, new_content + blocks * DIGEST_META_BYTES)
        delta = moved if first else min(
            moved, new_content + blocks * DELTA_HEADER_BYTES
        )
        wire = {"delta": delta, "dedup": dedup}.get(
            self.codec, min(moved, delta, dedup)
        )
        self._based.add(name)
        self.wire_bytes += wire
        return wire


@dataclass
class WhatIfResult:
    """Modelled accounting for one what-if configuration."""

    mode: str
    #: the modelled bytes: coordinated, pre-copy (redundant re-copies
    #: included), saved by incremental extents, the codec's logical and
    #: wire totals, and the blocking seconds of every coordinated step
    accounting: CopyAccounting = field(default_factory=CopyAccounting)
    intervals: int = 0
    #: fraction of enumerated chunks the trace sized (1.0 = complete)
    coverage: float = 1.0
    #: per-rank coordinated bytes (diagnostics)
    per_rank: Dict[str, int] = field(default_factory=dict)
    #: payload codec the model replayed (``None``: no codec axis)
    codec: Optional[str] = None


def _epoch_bytes(
    act: ChunkActivity, size: int, granularity: str
) -> List[int]:
    """Bytes each write epoch would move under *granularity*."""
    copies = act.copies
    if granularity == "page":
        # best extent knowledge we have: what each captured copy moved
        return [
            min(size, _logical(c)) if size else _logical(c) for c in copies
        ]
    return [size or _logical(c) for c in copies]


def _fits(epoch_start: float, nbytes: int, deadline: float, bw: float) -> bool:
    return epoch_start + nbytes / bw <= deadline


def run_whatif(
    workload: Workload,
    mode: str,
    *,
    bandwidth_scale: float = 1.0,
    copy_granularity: Optional[str] = None,
    threshold_margin: float = 1.25,
    codec: Optional[str] = None,
    codec_block: int = DEFAULT_BLOCK,
    codec_novelty: float = DEFAULT_NOVELTY,
) -> WhatIfResult:
    """Replay *workload* under *mode* and return modelled accounting."""
    if mode not in _MODES:
        raise ConfigError(
            f"unknown replay policy mode {mode!r}; choose from {_MODES}"
        )
    if bandwidth_scale <= 0:
        raise ConfigError("bandwidth_scale must be positive")
    granularity = copy_granularity or "chunk"
    if granularity not in ("chunk", "page"):
        raise ConfigError(
            f"unknown copy granularity {granularity!r} (chunk or page)"
        )
    bw = (workload.local_bandwidth or 1.0) * bandwidth_scale
    res = WhatIfResult(mode=mode)
    acc = res.accounting
    ce: Optional[CodecEstimator] = None
    if codec is not None:
        ce = CodecEstimator(codec, block=codec_block, novelty=codec_novelty)
        res.codec = codec
    sized = 0
    enumerated_total = 0
    for rank, rw in sorted(workload.ranks.items()):
        rank_coord = 0
        est: Optional[ThresholdEstimator] = None
        if mode in ("dcpc", "dcpcp"):
            est = ThresholdEstimator(
                bandwidth_per_core=bw,
                margin=threshold_margin,
            )
        hot: Dict[str, float] = {}
        for rec in rw.intervals:
            coord_bytes, precopy_bytes, saved = _replay_interval(
                rec,
                rw,
                mode,
                granularity=granularity,
                bw=bw,
                est=est,
                hot=hot,
                ce=ce,
                rank=rank,
            )
            rank_coord += coord_bytes
            acc.coordinated_bytes += coord_bytes
            acc.local_precopy_bytes += precopy_bytes
            acc.bytes_saved += saved
            acc.blocking_s += coord_bytes / bw + workload.flush_cost
            res.intervals += 1
            if est is not None:
                data = float(sum(rw.chunk_sizes.values()))
                if rec.compute_window > 0 and data > 0:
                    est.observe_interval(rec.compute_window, data)
            if mode == "dcpcp":
                _update_hot(hot, rec)
            names = rec.enumerated or list(rec.chunks)
            enumerated_total += len(names)
            sized += sum(1 for n in names if rw.chunk_sizes.get(n, 0) > 0)
        if mode != "none":
            # pre-copy activity after the final commit still moves
            # bytes in a live run; charge it in pre-copying modes
            acc.local_precopy_bytes += sum(
                act.moved_bytes for act in rw.trailing.values()
            )
            if ce is not None:
                for name, act in rw.trailing.items():
                    for c in act.copies:
                        ce.ship(f"{rank}/{name}", _logical(c))
        res.per_rank[rank] = rank_coord
    if enumerated_total:
        res.coverage = sized / enumerated_total
    if ce is not None:
        acc.codec_logical_bytes = ce.logical_bytes
        acc.codec_wire_bytes = ce.wire_bytes
    return res


def _replay_interval(
    rec: IntervalRecord,
    rw: RankWorkload,
    mode: str,
    *,
    granularity: str,
    bw: float,
    est: Optional[ThresholdEstimator],
    hot: Dict[str, float],
    ce: Optional[CodecEstimator] = None,
    rank: str = "",
):
    """Decide one interval's traffic; returns (coordinated, precopy,
    saved) byte counts.  Every modelled shipment is also fed through
    *ce* (when set) — the codec axis sees exactly the payloads the
    policy decided to move."""
    coord = 0
    pre = 0
    saved = 0
    deadline = rec.coordinated_begin
    names = rec.enumerated or list(rec.chunks)

    def ship(name: str, moved: int) -> None:
        if ce is not None:
            ce.ship(f"{rank}/{name}", moved)

    # DCPC: pre-copy may not start before T_p into the interval
    ready = rec.start
    if est is not None:
        ready = rec.start + est.threshold()
    for name in names:
        act = rec.chunks.get(name)
        size = rw.chunk_sizes.get(name, 0)
        if mode == "none":
            # the baseline copies every persistent chunk each step
            if granularity == "page":
                moved = act.moved_bytes if act is not None else 0
            else:
                moved = size
            coord += moved
            ship(name, moved)
            if size and granularity == "page":
                saved += max(0, size - moved)
            continue
        if act is None or not act.copies:
            continue  # clean all interval: dirty-tracking modes skip it
        if mode == "dcpcp" and hot.get(name, 0.0) > _HOT_CUTOFF:
            # withheld: known re-dirtier, pre-copying it is waste
            moved = (
                min(size, act.moved_bytes) if granularity == "page" and size
                else (size or act.moved_bytes)
            )
            coord += moved
            ship(name, moved)
            if size and granularity == "page":
                saved += max(0, size - moved)
            continue
        epochs = act.epochs(rec.start)
        per_epoch = _epoch_bytes(act, size, granularity)
        if mode in ("dcpc", "dcpcp"):
            collapsed = [b for e, b in zip(epochs, per_epoch) if e < ready]
            live_epochs = [
                (e, b) for e, b in zip(epochs, per_epoch) if e >= ready
            ]
            if collapsed:
                merged = min(size, sum(collapsed)) if size else sum(collapsed)
                live_epochs.insert(0, (ready, merged))
        else:
            live_epochs = list(zip(epochs, per_epoch))
        if not live_epochs:
            continue
        *early, (last_e, last_b) = live_epochs
        for _, b in early:
            pre += b
            ship(name, b)
        if _fits(last_e, last_b, deadline, bw):
            pre += last_b
        else:
            coord += last_b
            if size and granularity == "page":
                saved += max(0, size - last_b)
        ship(name, last_b)
    return coord, pre, saved


def _update_hot(hot: Dict[str, float], rec: IntervalRecord) -> None:
    """Fold this interval's re-dirty evidence into the DCPCP scores."""
    for name, act in rec.chunks.items():
        observed = 1.0 if len(act.copies) > 1 else 0.0
        prev = hot.get(name)
        hot[name] = (
            observed
            if prev is None
            else _HOT_SMOOTHING * observed + (1 - _HOT_SMOOTHING) * prev
        )
