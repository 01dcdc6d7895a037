"""Per-page dirty state.

The paper's runtime uses hardware paging in two ways:

* **write protection** on all pages of a chunk after its pre-copy, so
  the first subsequent write faults and marks the whole chunk dirty
  (chunk-level protection amortizes the 6-12 us fault cost over the
  chunk instead of paying it per page);
* an **'nvdirty' bit per NVM page** (added by their kernel patch) that
  the remote helper reads via a syscall to find dirty pages *without*
  taking protection faults.

Python cannot trap real SIGSEGV, so writes flow through an explicit
barrier (:meth:`repro.alloc.chunk.Chunk.write`), and the chunk — not an
NVM region — keeps the page state the runs read: one
:class:`StalePageMap` per stream that copies page extents, whose
``remote`` map is §V's nvdirty query.  A stale map holds page *runs*, so its size follows the
write pattern, not the chunk size: a 400 MB chunk written whole is one
run per version slot.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Tuple

from ..errors import InvalidAddress
from ..units import PAGE_SIZE, pages_of

__all__ = ["StalePageMap", "check_access"]


def check_access(offset: int, nbytes: int, size: int) -> None:
    """Raise :class:`InvalidAddress` unless ``[offset, offset + nbytes)``
    lies within ``size`` bytes."""
    if offset < 0 or nbytes < 0 or offset + nbytes > size:
        raise InvalidAddress(f"access [{offset}, {offset + nbytes}) outside region of {size} bytes")


def _page_range(offset: int, nbytes: int, size: int, page_size: int) -> Tuple[int, int]:
    """Half-open page index range covering a checked byte range."""
    check_access(offset, nbytes, size)
    if nbytes == 0:
        return (0, 0)
    return (offset // page_size, (offset + nbytes - 1) // page_size + 1)


def _covered_pages(offset: int, nbytes: int, size: int, page_size: int) -> Tuple[int, int]:
    """Half-open index range of the pages a checked byte range covers
    whole; the region's ragged last page counts as whole once the range
    reaches the region's end.  Empty when no page is covered."""
    check_access(offset, nbytes, size)
    end = offset + nbytes
    last = pages_of(size, page_size) if end == size else end // page_size
    return (-(-offset // page_size), last)


class StalePageMap:
    """Per-version-slot stale page runs for incremental copy.

    "Dirty since the last checkpoint" is the wrong predicate under
    two-version shadow buffering: the in-progress slot alternates, so
    the slot written this checkpoint was last refreshed *two*
    checkpoints ago.  This map keeps one stale page set per version
    slot with the invariant

        ``stale[slot] ⊇ {pages where DRAM may differ from slot}``

    Every application write marks the page stale in **all** slots;
    copying a slot's extents clears the pages they cover whole in
    *that* slot only.  Fresh, resized, or rebuilt maps start all-stale —
    the safe direction is over-copying, never under-copying.

    A slot's set is a sorted list of run edges ``[s0, e0, s1, e1, ...]``:
    half-open page runs ``[s, e)``, disjoint and never adjacent (a run
    that ends where the next begins is one run).  The state grows with
    the number of runs, not of pages, and a whole-chunk write on an
    all-stale or empty slot is O(1).
    """

    __slots__ = ("nbytes", "page_size", "n_pages", "_runs")

    def __init__(self, nbytes: int, n_slots: int, page_size: int = PAGE_SIZE) -> None:
        if n_slots < 1:
            raise ValueError("need at least one version slot")
        if nbytes < 0:
            raise ValueError("region size must be >= 0")
        self.nbytes = nbytes
        self.page_size = page_size
        self.n_pages = pages_of(nbytes, page_size)
        self._runs: List[List[int]] = [self._all_stale() for _ in range(n_slots)]

    def _all_stale(self) -> List[int]:
        return [0, self.n_pages] if self.n_pages else []

    @property
    def n_slots(self) -> int:
        return len(self._runs)

    def ensure_slots(self, n_slots: int) -> None:
        """Grow to *n_slots*; new slots start fully stale."""
        while len(self._runs) < n_slots:
            self._runs.append(self._all_stale())

    def mark(self, offset: int, nbytes: int) -> None:
        """A write landed on [offset, offset+nbytes): every slot's copy
        of those pages is now behind DRAM."""
        first, last = _page_range(offset, nbytes, self.nbytes, self.page_size)
        if first == last:
            return
        for runs in self._runs:
            # edges left of i end before `first` with a gap; edges from
            # j on start after `last` with a gap; an odd index lands
            # inside a run (or on an adjacent edge), which then merges
            # and keeps its own edge instead of the new one
            i = bisect_left(runs, first)
            j = bisect_right(runs, last, i)
            runs[i:j] = (first, last)[i & 1 : 2 - (j & 1)]

    def mark_all(self) -> None:
        self._runs = [self._all_stale() for _ in self._runs]

    def extents(self, slot: int, clear: bool = False) -> List[Tuple[int, int]]:
        """Coalesced stale byte runs for one version slot (the last one
        clipped at the region size)."""
        runs = self._runs[slot]
        ps, nb = self.page_size, self.nbytes
        it = iter(runs)
        extents = [(s * ps, min(e * ps, nb) - s * ps) for s, e in zip(it, it)]
        if clear:
            runs.clear()
        return extents

    def clear_extents(self, slot: int, extents: List[Tuple[int, int]]) -> None:
        """Mark exactly *extents* copied into *slot* (writes that raced
        the copy keep their stale pages — only the listed runs clear).
        A page an extent covers only in part stays stale."""
        runs = self._runs[slot]
        for off, n in extents:
            first, last = _covered_pages(off, n, self.nbytes, self.page_size)
            if first >= last:
                continue
            # cut [first, last) out: a run straddling `first` keeps
            # [s, first), one straddling `last` keeps [last, e)
            i = bisect_left(runs, first)
            j = bisect_right(runs, last, i)
            runs[i:j] = (first, last)[1 - (i & 1) : 1 + (j & 1)]

    def clear_all(self, slot: int) -> None:
        """A full-chunk copy refreshed *slot* entirely."""
        self._runs[slot].clear()

    def stale_bytes(self, slot: int) -> int:
        runs = self._runs[slot]
        if not runs:
            return 0
        total = (sum(runs[1::2]) - sum(runs[0::2])) * self.page_size
        # the final page may be partial
        if runs[-1] == self.n_pages:
            total -= self.n_pages * self.page_size - self.nbytes
        return total

    def resize(self, nbytes: int) -> None:
        """Chunk was reallocated: every slot's region content is suspect
        until re-copied, so all slots go fully stale at the new size."""
        self.nbytes = nbytes
        self.n_pages = pages_of(nbytes, self.page_size)
        self.mark_all()
