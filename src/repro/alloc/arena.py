"""A jemalloc-style arena allocator for DRAM working copies.

§V: "The allocation component extends the highly scalable Jemalloc
allocator to manage allocations ...".  This is a faithful small-scale
rebuild of jemalloc's design:

* **size classes** — power-of-two groups subdivided 4 ways (8, 16, 32,
  48, 64, 80, ... 14336) for small allocations;
* **slabs** — small classes are served from slab runs holding many
  equal-size slots (bitmap-free: a slot freelist per slab);
* **large allocations** — page-rounded, served first-fit from a free
  extent list with split + address-order coalescing;
* arenas draw page-aligned **extents** from the owning
  :class:`~repro.memory.device.MemoryDevice` and retain them (jemalloc
  retains virtual memory too), so device accounting reflects the
  arena's footprint, not instantaneous live bytes.

Addresses are integer offsets in the arena's virtual space; the chunk
layer attaches numpy buffers to allocations.  The allocator's job here
is realism of placement/accounting plus invariants we property-test:
no overlap, alignment, reuse after free, bounded fragmentation.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import AllocationError
from ..memory.device import MemoryDevice
from ..units import KiB, MiB, align_up

__all__ = ["SIZE_CLASSES", "Arena", "Allocation"]


def _build_size_classes() -> List[int]:
    """jemalloc-style class ladder: 8..128 by 16s, then 4 classes per
    doubling up to 14 KiB."""
    classes = [8, 16, 32, 48, 64, 80, 96, 112, 128]
    base = 128
    while base < 14 * KiB:
        step = base // 4
        for i in range(1, 5):
            size = base + i * step
            if size > 14 * KiB:
                break
            classes.append(size)
        base *= 2
    return classes


SIZE_CLASSES: List[int] = _build_size_classes()
SMALL_LIMIT: int = SIZE_CLASSES[-1]
PAGE: int = 4 * KiB
EXTENT_SIZE: int = 4 * MiB
SLAB_SIZE: int = 64 * KiB


@dataclass(slots=True)
class Allocation:
    """A live allocation: ``[addr, addr + size)`` in arena space."""

    addr: int
    size: int  # bytes actually reserved (>= requested)
    requested: int  # bytes the caller asked for
    size_class: Optional[int]  # None for large/huge allocations
    slab_addr: Optional[int] = None


@dataclass
class _Slab:
    """A run of equal-size slots for one small size class."""

    addr: int
    slot_size: int
    n_slots: int
    free_slots: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.free_slots:
            self.free_slots = list(range(self.n_slots - 1, -1, -1))

    @property
    def full(self) -> bool:
        return not self.free_slots

    @property
    def empty(self) -> bool:
        return len(self.free_slots) == self.n_slots


class Arena:
    """One allocation arena (per process, as in jemalloc's per-thread
    arena assignment)."""

    def __init__(self, device: MemoryDevice, owner: str = "arena") -> None:
        self.device = device
        self.owner = owner
        self._next_addr = 0
        #: small bins: size class -> slabs with free slots
        self._bins: Dict[int, List[_Slab]] = {}
        #: all slabs by base address (for frees)
        self._slabs: Dict[int, _Slab] = {}
        #: sorted free extents for large allocations: list[(addr, size)]
        self._free_extents: List[Tuple[int, int]] = []
        #: live large allocations: addr -> size
        self._large: Dict[int, int] = {}
        #: live small allocations: addr -> Allocation
        self._live: Dict[int, Allocation] = {}
        # -- stats --
        self.bytes_requested = 0
        self.bytes_reserved = 0
        self.extent_bytes = 0
        self.alloc_count = 0
        self.free_count = 0

    # ------------------------------------------------------------------
    # Extent management.
    # ------------------------------------------------------------------

    def _grab_extent(self, nbytes: int) -> int:
        """Reserve fresh address space backed by device capacity."""
        nbytes = align_up(nbytes, PAGE)
        self.device.allocate(nbytes, owner=self.owner)
        addr = self._next_addr
        self._next_addr += nbytes
        self.extent_bytes += nbytes
        return addr

    def _alloc_pages(self, nbytes: int) -> int:
        """Page-rounded allocation from the free-extent pool (first
        fit), splitting the remainder back."""
        nbytes = align_up(nbytes, PAGE)
        for i, (addr, size) in enumerate(self._free_extents):
            if size >= nbytes:
                del self._free_extents[i]
                if size > nbytes:
                    insort(self._free_extents, (addr + nbytes, size - nbytes))
                return addr
        # no fit: carve a new extent (at least EXTENT_SIZE to amortize)
        grab = max(nbytes, EXTENT_SIZE)
        addr = self._grab_extent(grab)
        if grab > nbytes:
            insort(self._free_extents, (addr + nbytes, grab - nbytes))
        return addr

    def _free_pages(self, addr: int, nbytes: int) -> None:
        """Return pages to the pool, coalescing with neighbours."""
        nbytes = align_up(nbytes, PAGE)
        insort(self._free_extents, (addr, nbytes))
        # coalesce around the inserted entry
        merged: List[Tuple[int, int]] = []
        for a, s in self._free_extents:
            if merged and merged[-1][0] + merged[-1][1] == a:
                pa, ps = merged[-1]
                merged[-1] = (pa, ps + s)
            else:
                merged.append((a, s))
        self._free_extents = merged

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------

    @staticmethod
    def size_class_for(nbytes: int) -> Optional[int]:
        """Smallest size class holding *nbytes*, or None if large."""
        if nbytes > SMALL_LIMIT:
            return None
        for cls in SIZE_CLASSES:
            if cls >= nbytes:
                return cls
        return None  # pragma: no cover - unreachable

    def alloc(self, nbytes: int) -> Allocation:
        """Allocate *nbytes*; small requests go to slabs, the rest to
        page-granular extents."""
        if nbytes <= 0:
            raise AllocationError(f"allocation size must be positive, got {nbytes}")
        self.alloc_count += 1
        self.bytes_requested += nbytes
        cls = self.size_class_for(nbytes)
        if cls is not None:
            allocation = self._alloc_small(nbytes, cls)
        else:
            addr = self._alloc_pages(nbytes)
            size = align_up(nbytes, PAGE)
            self._large[addr] = size
            allocation = Allocation(addr=addr, size=size, requested=nbytes, size_class=None)
        self.bytes_reserved += allocation.size
        self._live[allocation.addr] = allocation
        return allocation

    def _alloc_small(self, nbytes: int, cls: int) -> Allocation:
        bin_slabs = self._bins.setdefault(cls, [])
        slab = bin_slabs[-1] if bin_slabs else None
        if slab is None or slab.full:
            n_slots = max(1, SLAB_SIZE // cls)
            addr = self._alloc_pages(n_slots * cls)
            slab = _Slab(addr=addr, slot_size=cls, n_slots=n_slots)
            self._slabs[addr] = slab
            bin_slabs.append(slab)
        slot = slab.free_slots.pop()
        if slab.full:
            bin_slabs.remove(slab)
        return Allocation(
            addr=slab.addr + slot * cls,
            size=cls,
            requested=nbytes,
            size_class=cls,
            slab_addr=slab.addr,
        )

    def free(self, allocation: Allocation) -> None:
        live = self._live.pop(allocation.addr, None)
        if live is None:
            raise AllocationError(f"double free or foreign allocation at addr {allocation.addr}")
        self.free_count += 1
        self.bytes_requested -= allocation.requested
        self.bytes_reserved -= allocation.size
        if allocation.size_class is None:
            size = self._large.pop(allocation.addr)
            self._free_pages(allocation.addr, size)
            return
        slab = self._slabs[allocation.slab_addr]  # type: ignore[index]
        slot = (allocation.addr - slab.addr) // slab.slot_size
        was_full = slab.full
        slab.free_slots.append(slot)
        bin_slabs = self._bins.setdefault(allocation.size_class, [])
        if slab.empty:
            # release the whole slab back to the page pool
            if slab in bin_slabs:
                bin_slabs.remove(slab)
            del self._slabs[slab.addr]
            self._free_pages(slab.addr, slab.n_slots * slab.slot_size)
        elif was_full:
            bin_slabs.append(slab)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def live_allocations(self) -> int:
        return len(self._live)

    def check_invariants(self) -> None:
        """Assert no two live allocations overlap and all are in-bounds
        (used by the property-based tests)."""
        spans = sorted((a.addr, a.addr + a.size) for a in self._live.values())
        for (s0, e0), (s1, _e1) in zip(spans, spans[1:]):
            if s1 < e0:
                raise AssertionError(f"overlapping allocations: [{s0},{e0}) and [{s1},...)")
        for a in self._live.values():
            if a.addr < 0 or a.addr + a.size > self._next_addr:
                raise AssertionError(f"allocation out of arena bounds: {a}")

    def release(self) -> None:
        """Tear down the arena, returning all extents to the device."""
        self.device.release(self.extent_bytes, owner=self.owner)
        self.extent_bytes = 0
        self._live.clear()
        self._large.clear()
        self._slabs.clear()
        self._bins.clear()
        self._free_extents.clear()
