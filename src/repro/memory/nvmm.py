"""The NVM kernel manager — the paper's Linux memory-manager extension
rebuilt as a library object.

Responsibilities (mirroring §V "NVM Kernel"):

* ``nvmmap``-style allocation of NVM-backed regions per process;
* per-process **persistent metadata** describing every NVM region, used
  at restart to re-load persistent pages into the process;
* **cache flush** before data is marked consistent (charged as a cost,
  and realized as a store flush so unflushed data truly dies with a
  crash).

§V's **nvdirty** query — which NVM pages the remote helper still has to
send — is answered per chunk by its ``remote``
:class:`~repro.memory.page.StalePageMap`, so a region holds no page
state of its own.

Regions may be *real* (bytes live in the persistent store — used by
the functional API, examples and tests) or *phantom* (size-only — used
by cluster-scale simulations where holding 48 x 410 MB of real bytes
would be pointless); both are bounds-checked and charge device wear.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .._numpy import np
from ..config import PCM_CONFIG
from ..errors import AllocationError, PersistenceError
from ..units import usec
from .device import MemoryDevice
from .page import check_access
from .persistence import InMemoryStore, PersistentStore

__all__ = ["NvmRegion", "NVMKernelManager"]

#: fixed cost of the kernel cache-flush method (clflush loop over the
#: dirty working set; small next to copy costs).
CACHE_FLUSH_COST = usec(120.0)

#: syscall cost for metadata operations (nvmmap, dirty-page query...).
SYSCALL_COST = usec(0.8)


class NvmRegion:
    """One mapped NVM region of a process."""

    __slots__ = ("manager", "pid", "name", "nbytes", "phantom", "region_id")

    def __init__(
        self,
        manager: "NVMKernelManager",
        pid: str,
        name: str,
        nbytes: int,
        phantom: bool,
    ) -> None:
        self.manager = manager
        self.pid = pid
        self.name = name
        self.nbytes = nbytes
        self.phantom = phantom
        self.region_id = f"{pid}/{name}"

    # -- data access ---------------------------------------------------------

    def write(self, offset: int, data: Any) -> int:
        """Store bytes and record device wear.  Returns the byte count
        written."""
        payload = np.asarray(data)
        nbytes = payload.nbytes
        if not self.phantom:
            self.manager.store.write(self.region_id, offset, payload)
        check_access(offset, nbytes, self.nbytes)
        self.manager.device.record_write(nbytes)
        return nbytes

    def write_phantom(self, offset: int, nbytes: int) -> int:
        """Account a write of *nbytes* without payload (simulation mode)."""
        if offset < 0 or nbytes < 0 or offset + nbytes > self.nbytes:
            check_access(offset, nbytes, self.nbytes)  # raises
        self.manager.device.record_write(nbytes)
        return nbytes

    def read(self, offset: int = 0, nbytes: Optional[int] = None) -> np.ndarray:
        """Read bytes back (zeros for phantom regions)."""
        if nbytes is None:
            nbytes = self.nbytes - offset
        self.manager.device.record_read(nbytes)
        if self.phantom:
            check_access(offset, nbytes, self.nbytes)
            return np.zeros(nbytes, dtype=np.uint8)
        return self.manager.store.read(self.region_id, offset, nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "phantom" if self.phantom else "real"
        return f"<NvmRegion {self.region_id} {self.nbytes}B {kind}>"


class NVMKernelManager:
    """Allocates NVM regions and keeps per-process persistent metadata."""

    _META_PREFIX = "nvmm/proc:"

    def __init__(
        self,
        device: Optional[MemoryDevice] = None,
        store: Optional[PersistentStore] = None,
    ) -> None:
        self.device = device if device is not None else MemoryDevice(PCM_CONFIG)
        self.store = store if store is not None else InMemoryStore()
        #: live regions: (pid, name) -> NvmRegion
        self._regions: Dict[tuple[str, str], NvmRegion] = {}
        #: accumulated (virtual) syscall/flush cost, for callers that
        #: charge it to a clock.
        self.accrued_cost = 0.0
        self.syscall_count = 0

    # -- metadata ------------------------------------------------------------

    def _meta_key(self, pid: str) -> str:
        return f"{self._META_PREFIX}{pid}"

    def _load_meta(self, pid: str) -> Dict[str, Any]:
        return self.store.get_meta(self._meta_key(pid), {"regions": {}})

    def _save_region(self, region: NvmRegion) -> None:
        """Write *region*'s own record of the process's region table
        (an nvmmap costs one record, not the table)."""
        self.store.put_meta_entry(
            self._meta_key(region.pid),
            "regions",
            region.name,
            {"size": region.nbytes, "phantom": region.phantom},
        )

    def _charge(self, cost: float) -> None:
        self.accrued_cost += cost
        self.syscall_count += 1

    # -- nvmmap family ----------------------------------------------------------

    def nvmmap(self, pid: str, name: str, nbytes: int, phantom: bool = False) -> NvmRegion:
        """Allocate an NVM region for process *pid* (the 'nvmmap'
        system call).  The region is recorded in the process metadata
        so restart can find it."""
        key = (pid, name)
        if key in self._regions:
            raise AllocationError(f"region {name!r} already mapped for process {pid!r}")
        # the charge of :meth:`_charge`, inline: every chunk maps two regions
        self.accrued_cost += SYSCALL_COST
        self.syscall_count += 1
        self.device.allocate(nbytes, owner=pid)
        region = NvmRegion(self, pid, name, nbytes, phantom)
        if not phantom:
            if self.store.exists(region.region_id):
                # a stale region from a previous life without metadata
                # consistency would be a store bug
                raise PersistenceError(f"orphan store region {region.region_id!r}")
            self.store.create(region.region_id, nbytes)
        self._regions[key] = region
        self._save_region(region)
        return region

    def nvmunmap(self, pid: str, name: str) -> None:
        key = (pid, name)
        region = self._regions.pop(key, None)
        if region is None:
            raise AllocationError(f"region {name!r} not mapped for process {pid!r}")
        self._charge(SYSCALL_COST)
        self.device.release(region.nbytes, owner=pid)
        if not region.phantom and self.store.exists(region.region_id):
            self.store.delete(region.region_id)
        self.store.delete_meta_entry(self._meta_key(pid), "regions", name)

    def nvmrealloc(self, pid: str, name: str, nbytes: int) -> NvmRegion:
        """Grow (or shrink) a mapped region, preserving contents."""
        key = (pid, name)
        region = self._regions.get(key)
        if region is None:
            raise AllocationError(f"region {name!r} not mapped for process {pid!r}")
        self._charge(SYSCALL_COST)
        delta = nbytes - region.nbytes
        if delta > 0:
            self.device.allocate(delta, owner=pid)
        elif delta < 0:
            self.device.release(-delta, owner=pid)
        if not region.phantom:
            self.store.resize(region.region_id, nbytes)
        region.nbytes = nbytes
        self._save_region(region)
        return region

    def find(self, pid: str, name: str) -> Optional[NvmRegion]:
        """The region *name* of *pid*, or ``None`` if it is not mapped."""
        return self._regions.get((pid, name))

    def region(self, pid: str, name: str) -> NvmRegion:
        try:
            return self._regions[(pid, name)]
        except KeyError:
            raise AllocationError(f"region {name!r} not mapped for process {pid!r}") from None

    def process_regions(self, pid: str) -> List[NvmRegion]:
        return [r for (p, _), r in sorted(self._regions.items()) if p == pid]

    # -- restart support -----------------------------------------------------------

    def crash_process(self, pid: str) -> None:
        """Drop the *volatile* view of a process (its mapped-region
        objects); persistent store contents and metadata survive.
        Capacity stays reserved — the data is still in NVM."""
        for key in [k for k in self._regions if k[0] == pid]:
            del self._regions[key]

    def load_process(self, pid: str) -> Dict[str, NvmRegion]:
        """Restart path: rebuild region mappings from the persistent
        per-process metadata (§V: 'the information in the metadata
        structure ... is used to load the persistent pages to the
        process address space')."""
        self._charge(SYSCALL_COST)
        meta = self._load_meta(pid)
        out: Dict[str, NvmRegion] = {}
        for name, info in sorted(meta["regions"].items()):
            key = (pid, name)
            if key in self._regions:
                out[name] = self._regions[key]
                continue
            phantom = bool(info.get("phantom", False))
            nbytes = int(info["size"])
            if not phantom and not self.store.exists(f"{pid}/{name}"):
                raise PersistenceError(
                    f"metadata lists region {name!r} for {pid!r} but store has no data"
                )
            region = NvmRegion(self, pid, name, nbytes, phantom)
            self._regions[key] = region
            out[name] = region
        return out

    def known_processes(self) -> List[str]:
        """All pids with persistent metadata (restart discovery)."""
        prefix = self._META_PREFIX
        return sorted(k[len(prefix):] for k in self.store.list_meta() if k.startswith(prefix))

    # -- durability --------------------------------------------------------------------

    def cache_flush(self) -> float:
        """Flush CPU caches + persistent store: everything written so
        far becomes durable.  Returns the (virtual) cost to charge."""
        self.store.flush()
        self.accrued_cost += CACHE_FLUSH_COST
        return CACHE_FLUSH_COST

    def take_accrued_cost(self) -> float:
        """Return and reset the accumulated syscall/flush cost."""
        cost, self.accrued_cost = self.accrued_cost, 0.0
        return cost
