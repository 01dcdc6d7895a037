"""Coordinated local checkpoints (§IV/§V): the per-rank checkpointer
under its public name.

All scheduling, copy-walk and commit-ordering logic lives in
:class:`~repro.core.engine.CheckpointEngine`; the paper's four modes
are :mod:`repro.core.policy` strategies selected by the config's
``mode``, and where the bytes land is the ``destination`` backend
(:mod:`repro.core.destination`, the NVM shadow arena by default).
"""

from __future__ import annotations

from .engine import CheckpointEngine

__all__ = ["LocalCheckpointer"]


class LocalCheckpointer(CheckpointEngine):
    """Per-rank local checkpoint coordinator."""
