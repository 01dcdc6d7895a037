"""Reference oracles: the codec's per-block arithmetic as it was
recomputed before block digests became state — kept here (and only
here) so the state-keeping code can be checked against it.

* :func:`recomputed_digests` — ``ContentModel.digests`` derived from
  the epochs on every call;
* :func:`full_search_contains` — ``BlockStore.contains`` asked about
  every block, base-equal or not, empty index or not;
* :func:`index_diff_extents` — ``stale_map_oracle.mask_extents`` through
  the set-page indices and their differences;
* :func:`reference_plan` — the delta / dedup / auto planners on top of
  the first two: no base-equality shortcut, no materialised vector;
* :func:`assert_index_is_rebuilds` — the refcount index against the
  one full re-derivation the store keeps, ``rebuild()``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.codec import (
    DELTA_HEADER_BYTES,
    DIGEST_META_BYTES,
    BlockStore,
    ContentModel,
    blocks_of_extents,
    covered_bytes,
    _mix64,
    _K1,
    _K2,
    _U0,
    _U1,
)


def recomputed_digests(model: ContentModel, idx: np.ndarray) -> np.ndarray:
    """Content digest of each block in *idx*, from ``(salt, block,
    epoch)`` — nothing cached."""
    idx = np.asarray(idx, dtype=np.int64)
    u = idx.astype(np.uint64)
    d = _mix64(model.salt ^ ((u + _U1) * _K1) ^ ((model._epochs[idx] + _U1) * _K2))
    return np.where(d == _U0, _U1, d)


def full_search_contains(store: BlockStore, digests: np.ndarray) -> np.ndarray:
    """Membership of every one of *digests* in the committed index:
    sort the needles, one ``searchsorted``, compare."""
    digests = np.asarray(digests, dtype=np.uint64)
    index = store._digests
    order = np.argsort(digests)
    needles = digests[order]
    pos = np.searchsorted(index, needles)
    if len(index) == 0:
        found = np.zeros(len(needles), dtype=bool)
    else:
        found = index[np.minimum(pos, len(index) - 1)] == needles
    hits = np.empty(len(digests), dtype=bool)
    hits[order] = found
    return hits


def index_diff_extents(mask: np.ndarray, page_size: int, nbytes: int) -> List[Tuple[int, int]]:
    """Coalesce a page bitmap into ``(offset, nbytes)`` byte runs by
    materialising every set page index and diffing them."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return []
    # run breaks: positions where the page index jumps by > 1
    breaks = np.flatnonzero(np.diff(idx) > 1) + 1
    starts = idx[np.concatenate(([0], breaks))]
    ends = idx[np.concatenate((breaks - 1, [idx.size - 1]))] + 1
    extents: List[Tuple[int, int]] = []
    for s, e in zip(starts.tolist(), ends.tolist()):
        off = s * page_size
        end_b = min(e * page_size, nbytes)
        extents.append((off, end_b - off))
    return extents


def assert_index_is_rebuilds(s: BlockStore) -> None:
    """The refcount index must be what ``rebuild()`` re-derives from
    the slot maps — same rows, same order, same counts, same dtypes."""
    oracle = BlockStore(block=s.block)
    oracle._slots = s._slots
    oracle.rebuild()
    assert np.array_equal(s._digests, oracle._digests)
    assert np.array_equal(s._counts, oracle._counts)
    assert (s._digests.dtype, s._counts.dtype) == (oracle._digests.dtype, oracle._counts.dtype)
    assert (s._counts > 0).all(), "refcount dropped to <= 0 but survived"


def reference_plan(
    model: ContentModel,
    nbytes: int,
    extents: Optional[List[tuple]],
    store: BlockStore,
    name: str,
    base_slot: int,
) -> Dict[str, Dict[str, int]]:
    """What the delta and dedup planners (and through them the auto
    codec) must report for a phantom chunk of *nbytes* whose content is
    *model*: the payload fields that reach the wire accounting, per
    planner, plus the auto codec's ``candidates``."""
    block = store.block
    idx = blocks_of_extents(extents, block, nbytes)
    cov = covered_bytes(extents, block, nbytes)
    logical = int(cov.sum())
    digests = recomputed_digests(model, idx)

    delta = {"kind": "delta", "wire_bytes": logical, "blocks_new": 0, "blocks_ref": 0,
             "changed_bytes": 0}
    base = store.slot_digests(name, base_slot) if base_slot >= 0 else None
    if base is None or len(idx) == 0:
        delta["kind"] = "full"
    else:
        based = np.zeros(len(idx), dtype=np.uint64)
        inb = idx < len(base)
        based[inb] = base[idx[inb]]
        unchanged = based == digests
        changed = int(round(float(cov[idx[~unchanged]].sum()) * model.novelty))
        delta["wire_bytes"] = min(int(changed + len(idx) * DELTA_HEADER_BYTES), logical)
        delta["changed_bytes"] = changed
        delta["blocks_ref"] = int(unchanged.sum())
        delta["blocks_new"] = int((~unchanged).sum())

    hits = full_search_contains(store, digests)
    wire = int(cov[idx[~hits]].sum()) + len(idx) * DIGEST_META_BYTES
    dedup = {
        "kind": "dedup",
        "wire_bytes": min(wire, logical) if logical else wire,
        "blocks_new": int((~hits).sum()),
        "blocks_ref": int(hits.sum()),
        "changed_bytes": 0,
    }
    candidates = {"raw": logical, "delta": delta["wire_bytes"], "dedup": dedup["wire_bytes"]}
    return {"delta": delta, "dedup": dedup, "candidates": candidates, "logical": logical,
            "digests": digests, "hits": hits}
