"""The persistent byte store backing emulated NVM.

The paper emulates PCM by reserving a DRAM range at boot and pinning it
across application sessions.  Here the "device contents" live in a
:class:`PersistentStore`, and :class:`InMemoryStore` is the one
implementation: regions held in RAM that survive simulated process
crashes (the store object *is* the NVM DIMM).  It keeps a working image
and a durable image: writes land in the working image and only become
durable at :meth:`~PersistentStore.flush`, so
:meth:`~PersistentStore.crash` rolls unflushed writes back to the
durable image.

The checkpoint runtime always flushes before marking a version
committed (the paper's 'Linux cache flush kernel method'), so committed
data survives a crash and the recovery protocol reads back exactly the
durable image a restart would find.

Metadata values are held JSON-normalised on both sides of the flush
boundary.  A write costs one typed private copy of what was written
(:func:`_json_copy` — a record for ``put_meta_entry``, the key's value
for ``put_meta``), the flush one more of each dirty record or key, a
crash one of every durable key; JSON text is produced only inside the
copy, for a value that is not of the plain JSON types.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from typing import Any, Dict, List, Optional, Tuple

from .._numpy import np
from ..errors import InvalidAddress, PersistenceError
from ..faults.crashpoints import ARMED, fire

__all__ = ["PersistentStore", "InMemoryStore"]


#: the types JSON holds by value: copying one is returning it
_JSON_LEAVES = frozenset((str, int, float, bool, type(None)))


def _json_copy(value: Any) -> Any:
    """A private, JSON-normalised copy of *value*: what reading back
    its JSON text would give, without producing the text.  Plain
    ``dict`` (``str`` keys) / ``list`` / ``tuple`` (→ ``list``)
    containers are rebuilt and the plain leaves shared — they are
    immutable; anything else (a non-``str`` key, a ``str`` / ``int``
    subclass, a numpy scalar, an arbitrary object) takes the text round
    trip itself, so it is coerced (``3 → "3"``, ``IntEnum → int``) or
    rejected with ``TypeError`` exactly as JSON would.  Costs one visit
    per value of *value* — callers hand it one record, or a whole key
    only when the whole key was written."""
    cls = type(value)
    if cls is dict:
        out = {}
        for k, v in value.items():
            if type(k) is not str:
                break  # JSON coerces or rejects the key
            out[k] = v if type(v) in _JSON_LEAVES else _json_copy(v)
        else:
            return out
    elif cls is list or cls is tuple:
        return [v if type(v) in _JSON_LEAVES else _json_copy(v) for v in value]
    elif cls in _JSON_LEAVES:
        return value
    return json.loads(json.dumps(value))


def _as_u8(data: Any) -> np.ndarray:
    """View arbitrary buffer-like data as a flat uint8 array."""
    arr = np.asarray(data)
    return np.ascontiguousarray(arr).view(np.uint8).reshape(-1)


class PersistentStore(ABC):
    """Region-granular persistent byte storage with a flush boundary."""

    # -- region lifecycle ---------------------------------------------------

    @abstractmethod
    def create(self, region_id: str, nbytes: int) -> None:
        """Create a zero-filled region.  Fails if it already exists."""

    @abstractmethod
    def resize(self, region_id: str, nbytes: int) -> None:
        """Grow/shrink a region, preserving the common prefix."""

    @abstractmethod
    def delete(self, region_id: str) -> None:
        """Remove a region (immediately durable)."""

    @abstractmethod
    def exists(self, region_id: str) -> bool: ...

    @abstractmethod
    def size(self, region_id: str) -> int: ...

    @abstractmethod
    def list_regions(self) -> List[str]: ...

    # -- data ---------------------------------------------------------------

    @abstractmethod
    def write(self, region_id: str, offset: int, data: Any) -> None:
        """Store bytes at *offset* (cached until :meth:`flush`)."""

    @abstractmethod
    def read(self, region_id: str, offset: int = 0, nbytes: Optional[int] = None) -> np.ndarray:
        """Read bytes (uint8 array copy) from the *current* (possibly
        unflushed) contents."""

    # -- durability ---------------------------------------------------------

    @abstractmethod
    def flush(self) -> int:
        """Make all cached writes durable; returns bytes flushed."""

    @abstractmethod
    def crash(self) -> None:
        """Simulate power/process loss: discard unflushed writes,
        keeping the last flushed state."""

    @abstractmethod
    def corrupt(self, region_id: str, offset: int) -> None:
        """Flip one *durable* byte of a region (media bit-rot on the
        emulated DIMM).  Used by fault injection; the corruption
        survives :meth:`crash` and must be caught by checksums."""

    # -- metadata (small JSON-able records, durable at flush) ---------------

    @abstractmethod
    def put_meta(self, key: str, value: Any) -> None: ...

    @abstractmethod
    def get_meta(self, key: str, default: Any = None) -> Any: ...

    @abstractmethod
    def delete_meta(self, key: str) -> None: ...

    @abstractmethod
    def list_meta(self) -> List[str]: ...

    # Table-valued metadata (``{"regions": {name: record, ...}}``) can
    # also be updated one record at a time, at the cost of that record:
    # ``get_meta(key)[table][name]`` changes, nothing else is copied,
    # and ``flush`` / ``crash`` treat the record exactly like a key.

    @abstractmethod
    def put_meta_entry(self, key: str, table: str, name: str, record: Any) -> None:
        """Set ``get_meta(key)[table][name]`` to a copy of *record*,
        creating the key and the table as needed."""

    @abstractmethod
    def delete_meta_entry(self, key: str, table: str, name: str) -> None:
        """Remove ``get_meta(key)[table][name]`` (a no-op if absent)."""

    # -- shared helpers -------------------------------------------------------

    def _check_range(self, region_size: int, offset: int, nbytes: int, region_id: str) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > region_size:
            raise InvalidAddress(
                f"region {region_id!r}: access [{offset}, {offset + nbytes}) "
                f"outside size {region_size}"
            )


class InMemoryStore(PersistentStore):
    """RAM-resident store with write-back caching and crash rollback."""

    def __init__(self) -> None:
        #: durable (flushed) contents.
        self._durable: Dict[str, np.ndarray] = {}
        #: working contents (durable + unflushed writes), copy-on-write.
        self._working: Dict[str, np.ndarray] = {}
        self._dirty: set[str] = set()
        self._meta_durable: Dict[str, Any] = {}
        self._meta_working: Dict[str, Any] = {}
        self._meta_dirty_keys: set[str] = set()
        #: key -> the (table, name) records written one at a time since
        #: the last flush, in write order (keys dirty as a whole are in
        #: ``_meta_dirty_keys`` instead, never in both)
        self._meta_dirty_entries: Dict[str, Dict[Tuple[str, str], None]] = {}

    # -- lifecycle -----------------------------------------------------------

    def create(self, region_id: str, nbytes: int) -> None:
        if region_id in self._working:
            raise PersistenceError(f"region {region_id!r} already exists")
        if nbytes < 0:
            raise PersistenceError("region size must be >= 0")
        self._working[region_id] = np.zeros(nbytes, dtype=np.uint8)
        self._dirty.add(region_id)

    def resize(self, region_id: str, nbytes: int) -> None:
        cur = self._region(region_id)
        new = np.zeros(nbytes, dtype=np.uint8)
        keep = min(len(cur), nbytes)
        new[:keep] = cur[:keep]
        self._working[region_id] = new
        self._dirty.add(region_id)

    def delete(self, region_id: str) -> None:
        self._region(region_id)  # existence check
        self._working.pop(region_id, None)
        self._durable.pop(region_id, None)
        self._dirty.discard(region_id)

    def exists(self, region_id: str) -> bool:
        return region_id in self._working

    def size(self, region_id: str) -> int:
        return len(self._region(region_id))

    def list_regions(self) -> List[str]:
        return sorted(self._working)

    # -- data ------------------------------------------------------------------

    def _region(self, region_id: str) -> np.ndarray:
        try:
            return self._working[region_id]
        except KeyError:
            raise PersistenceError(f"unknown region {region_id!r}") from None

    def write(self, region_id: str, offset: int, data: Any) -> None:
        region = self._region(region_id)
        payload = _as_u8(data)
        self._check_range(len(region), offset, len(payload), region_id)
        if region_id not in self._dirty and region_id in self._durable:
            # copy-on-write so crash() can roll back to the durable copy
            region = region.copy()
            self._working[region_id] = region
        region[offset : offset + len(payload)] = payload
        self._dirty.add(region_id)

    def read(self, region_id: str, offset: int = 0, nbytes: Optional[int] = None) -> np.ndarray:
        region = self._region(region_id)
        if nbytes is None:
            nbytes = len(region) - offset
        self._check_range(len(region), offset, nbytes, region_id)
        return region[offset : offset + nbytes].copy()

    # -- durability ----------------------------------------------------------------

    def flush(self) -> int:
        flushed = 0
        # sorted: the flush order must be deterministic so a crash
        # injected mid-flush lands on the same region every run
        for region_id in sorted(self._dirty):
            if region_id in self._working:
                self._durable[region_id] = self._working[region_id].copy()
                flushed += len(self._working[region_id])
                self._dirty.discard(region_id)
                if ARMED:
                    fire("store.flush.mid", store=self, region_id=region_id)
        self._dirty.clear()
        if ARMED:
            fire("store.flush.before_meta", store=self)
        # metadata: snapshot only what was written since the last flush
        # — whole keys, and single records of the table-valued ones
        for key in sorted(self._meta_dirty_keys):
            if key in self._meta_working:
                self._meta_durable[key] = _json_copy(self._meta_working[key])
            else:
                self._meta_durable.pop(key, None)
        self._meta_dirty_keys.clear()
        for key in sorted(self._meta_dirty_entries):
            working = self._meta_working[key]
            durable = self._meta_durable.setdefault(key, {})
            for table, name in self._meta_dirty_entries[key]:
                records = durable.setdefault(table, {})
                if name in working[table]:
                    records[name] = _json_copy(working[table][name])
                else:
                    records.pop(name, None)
        self._meta_dirty_entries.clear()
        return flushed

    def crash(self) -> None:
        self._working = {rid: arr.copy() for rid, arr in self._durable.items()}
        self._dirty.clear()
        self._meta_working = {k: _json_copy(v) for k, v in self._meta_durable.items()}
        self._meta_dirty_keys.clear()
        self._meta_dirty_entries.clear()

    def corrupt(self, region_id: str, offset: int) -> None:
        region = self._region(region_id)
        self._check_range(len(region), offset, 1, region_id)
        # rot the durable copy (the working copy too, if materialized
        # separately): reading it back after any crash sees the flip
        durable = self._durable.get(region_id)
        if durable is not None and offset < len(durable):
            durable[offset] ^= 0xFF
        if durable is None or region is not durable:
            region[offset] ^= 0xFF

    # -- metadata ---------------------------------------------------------------------

    def put_meta(self, key: str, value: Any) -> None:
        self._meta_working[key] = _json_copy(value)
        self._mark_key_dirty(key)

    def get_meta(self, key: str, default: Any = None) -> Any:
        return self._meta_working.get(key, default)

    def delete_meta(self, key: str) -> None:
        self._meta_working.pop(key, None)
        self._mark_key_dirty(key)

    def list_meta(self) -> List[str]:
        return sorted(self._meta_working)

    def _mark_key_dirty(self, key: str) -> None:
        # the whole key goes at the next flush; its single records need
        # no tracking of their own until then
        self._meta_dirty_keys.add(key)
        self._meta_dirty_entries.pop(key, None)

    def put_meta_entry(self, key: str, table: str, name: str, record: Any) -> None:
        record = _json_copy(record)  # rejected before anything changes
        value = self._meta_working.setdefault(key, {})
        records = value.setdefault(table, {}) if isinstance(value, dict) else None
        if not isinstance(records, dict):
            raise PersistenceError(f"metadata {key!r} holds no record table {table!r}")
        records[name] = record
        self._mark_entry_dirty(key, table, name)

    def delete_meta_entry(self, key: str, table: str, name: str) -> None:
        value = self._meta_working.get(key)
        records = value.get(table) if isinstance(value, dict) else None
        if isinstance(records, dict) and name in records:
            del records[name]
            self._mark_entry_dirty(key, table, name)

    def _mark_entry_dirty(self, key: str, table: str, name: str) -> None:
        if key not in self._meta_dirty_keys:
            self._meta_dirty_entries.setdefault(key, {})[(table, name)] = None

