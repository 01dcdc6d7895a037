"""Reference oracle: ``repro.memory.page.StalePageMap`` as it was
before stale pages became runs — one ``(n_slots × n_pages)`` bool
bitmap, every operation a numpy slice — kept here (and only here) so
the run representation can be checked against it.

Its ``clear_extents`` rounds a partly covered page *outward* (clears
it); the run map clears only pages an extent covers whole.  Callers
hand the oracle extents already rounded inward (:func:`covered_runs`),
so both answer the same question.  Its rows coalesce into byte runs
through :func:`mask_extents`, which moved here with it: the run map
needs no bitmap.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.memory.page import _page_range
from repro.units import PAGE_SIZE, pages_of


def mask_extents(mask: np.ndarray, page_size: int, nbytes: int) -> List[Tuple[int, int]]:
    """Coalesce a page bitmap into ``(offset, nbytes)`` byte runs.

    Adjacent set pages merge into one extent; the final extent is
    clipped to the region size (the last page may be partial).
    """
    if mask.size == 0:
        return []
    # run edges are where the bitmap flips; a run open at either end of
    # the bitmap gets its missing edge there
    edges = (np.flatnonzero(mask[1:] != mask[:-1]) + 1).tolist()
    if mask[0]:
        edges.insert(0, 0)
    if mask[-1]:
        edges.append(mask.size)
    extents: List[Tuple[int, int]] = []
    for s, e in zip(edges[0::2], edges[1::2]):
        off = s * page_size
        end_b = min(e * page_size, nbytes)
        extents.append((off, end_b - off))
    return extents


def covered_runs(
    extents: List[Tuple[int, int]], nbytes: int, page_size: int
) -> List[Tuple[int, int]]:
    """*extents* cut down to the pages they cover whole — page *p* is
    covered when the extent holds every byte of it that lies inside the
    region — as one byte run per page."""
    out = []
    for off, n in extents:
        for p in range(off // page_size, pages_of(off + n, page_size)):
            start, stop = p * page_size, min((p + 1) * page_size, nbytes)
            if off <= start and stop <= off + n:
                out.append((start, stop - start))
    return out


class StalePageMap:
    """Per-version-slot staleness bitmaps for incremental copy.

    "Dirty since the last checkpoint" is the wrong predicate under
    two-version shadow buffering: the in-progress slot alternates, so
    the slot written this checkpoint was last refreshed *two*
    checkpoints ago.  This map keeps one page bitmap per version slot
    with the invariant

        ``stale[slot] ⊇ {pages where DRAM may differ from slot}``

    Every application write marks the page stale in **all** slots;
    copying a slot's extents clears exactly those pages in *that* slot
    only.  Fresh, resized, or rebuilt maps start all-stale — the safe
    direction is over-copying, never under-copying.
    """

    __slots__ = ("nbytes", "page_size", "n_pages", "_stale")

    def __init__(self, nbytes: int, n_slots: int, page_size: int = PAGE_SIZE) -> None:
        if n_slots < 1:
            raise ValueError("need at least one version slot")
        if nbytes < 0:
            raise ValueError("region size must be >= 0")
        self.nbytes = nbytes
        self.page_size = page_size
        self.n_pages = pages_of(nbytes, page_size)
        # one row per version slot over a single 2D bitmap, so the hot
        # operation — mark() on every application write — is one
        # column-slice assignment instead of a Python loop over slots
        self._stale = np.ones((n_slots, self.n_pages), dtype=bool)

    @property
    def n_slots(self) -> int:
        return self._stale.shape[0]

    def ensure_slots(self, n_slots: int) -> None:
        """Grow to *n_slots*; new slots start fully stale."""
        if n_slots > self.n_slots:
            extra = np.ones((n_slots - self.n_slots, self.n_pages), dtype=bool)
            self._stale = np.vstack((self._stale, extra))

    def mark(self, offset: int, nbytes: int) -> None:
        """A write landed on [offset, offset+nbytes): every slot's copy
        of those pages is now behind DRAM."""
        first, last = _page_range(offset, nbytes, self.nbytes, self.page_size)
        self._stale[:, first:last] = True

    def mark_all(self) -> None:
        self._stale[:] = True

    def extents(self, slot: int, clear: bool = False) -> List[Tuple[int, int]]:
        """Coalesced stale byte runs for one version slot."""
        row = self._stale[slot]
        extents = mask_extents(row, self.page_size, self.nbytes)
        if clear:
            row[:] = False
        return extents

    def clear_extents(self, slot: int, extents: List[Tuple[int, int]]) -> None:
        """Mark exactly *extents* copied into *slot* (writes that raced
        the copy keep their stale bits — only the listed runs clear)."""
        row = self._stale[slot]
        for off, n in extents:
            first, last = _page_range(off, n, self.nbytes, self.page_size)
            row[first:last] = False

    def clear_all(self, slot: int) -> None:
        """A full-chunk copy refreshed *slot* entirely."""
        self._stale[slot, :] = False

    def stale_bytes(self, slot: int) -> int:
        row = self._stale[slot]
        n_dirty = int(row.sum())
        if n_dirty == 0:
            return 0
        total = n_dirty * self.page_size
        # the final page may be partial
        if bool(row[-1]) and self.nbytes % self.page_size:
            total -= self.page_size - (self.nbytes % self.page_size)
        return total

    def resize(self, nbytes: int) -> None:
        """Chunk was reallocated: every slot's region content is suspect
        until re-copied, so all slots go fully stale at the new size."""
        self.nbytes = nbytes
        self.n_pages = pages_of(nbytes, self.page_size)
        self._stale = np.ones((self.n_slots, self.n_pages), dtype=bool)
