"""Content-addressed experiment result cache.

A :class:`ResultCache` maps the SHA-256 of a *resolved* experiment
configuration (every option after argparse defaulting and seed
derivation) plus ``repro.__version__`` to the cell's flattened result
record.  Because the key covers the full semantic input, re-running a
sweep only executes cells whose configuration — or the library version
that produced them — actually changed; everything else is served from
disk.  Records are stored as one JSON file per key under a two-level
fan-out directory, so caches stay friendly to both `ls` and network
filesystems.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional

__all__ = ["ResultCache", "cache_key"]


def cache_key(config: Dict[str, Any], version: str) -> str:
    """The content address of one experiment cell: a stable hash of the
    canonical-JSON resolved config and the library version."""
    canon = json.dumps(
        {"config": config, "version": version},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class ResultCache:
    """Directory-backed content-addressed store of cell results."""

    def __init__(self, root: os.PathLike | str) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.writes = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached result record for *key*, or None on a miss (also
        on an unreadable/corrupt entry — anything but a JSON object
        holding an object ``result`` — treated as absent, so the cell
        re-runs and :meth:`put` overwrites it)."""
        try:
            with open(self._path(key), encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            payload = None
        result = payload.get("result") if isinstance(payload, dict) else None
        if not isinstance(result, dict):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: Dict[str, Any], config: Optional[dict] = None) -> None:
        """Store *result* under *key*; *config* rides along for
        debuggability (``repro-bench`` never reads it back)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload: Dict[str, Any] = {"result": result}
        if config is not None:
            payload["config"] = config
        tmp = path.with_name(path.name + ".tmp")
        # insertion order: a warm run must hand back the keys in the order
        # the cold run produced them (first-seen CSV columns depend on it)
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, path)  # readers never see a torn entry
        self.writes += 1

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))
