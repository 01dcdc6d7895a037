"""Named, seeded random streams.

Every stochastic component (failure injection, workload jitter, chunk
layout) draws from its own named stream derived from one root seed, so
adding randomness to one component never perturbs another and whole
experiments replay bit-identically.
"""

from __future__ import annotations

import hashlib
from typing import Dict

from .._numpy import np

__all__ = ["RngStreams"]


class RngStreams:
    """A factory of independent :class:`numpy.random.Generator` streams.

    Streams are keyed by name; the per-stream seed is a stable hash of
    ``(root_seed, name)`` so the mapping is independent of creation
    order.
    """

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def _derive_seed(self, name: str) -> int:
        digest = hashlib.blake2b(
            f"{self.root_seed}:{name}".encode(), digest_size=8
        ).digest()
        return int.from_bytes(digest, "little")

    def stream(self, name: str) -> np.random.Generator:
        """The generator for *name*, created on first use."""
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.default_rng(self._derive_seed(name))
            self._streams[name] = gen
        return gen

    def spawn(self, name: str) -> "RngStreams":
        """A child factory whose streams are independent of the parent's
        (used to give each node its own family of streams)."""
        return RngStreams(self._derive_seed(f"spawn:{name}"))

    def exponential(self, name: str, mean: float) -> float:
        """One exponential draw with the given mean from stream *name*."""
        if mean <= 0:
            raise ValueError("exponential mean must be positive")
        return float(self.stream(name).exponential(mean))
