"""Persistent worker pool: fork once, dispatch cells in batches.

Forking a fresh pool per grid and shipping every cell as its own task
*dominates* the ~0.27 s cells of the pinned bench grid (``parallel_cold``
ran at 0.45x serial that way).  :class:`WorkerPool` — the only class in
the package that owns processes — wraps one ``ProcessPoolExecutor``
(fork start method), forked on first use and reused by every grid of
the session (:func:`shared_pool`).  Each batch of ``(index, payload)``
pairs is one ``submit``, taken by whichever worker frees up first, and
answers with one list of ``(index, result, trace-lines)`` triples;
``run_grid`` reassembles grid order from the indexes, which keeps
``workers=N`` byte-identical to serial.  A batch dispatched with
``capture=True`` runs each cell under a ring-buffer sink on the worker's
own trace bus and returns the events as finished Jsonl lines, so the
parent only concatenates.

A cell's exception re-raises in the parent once every batch has
answered, and the pool stays usable.  Any worker death (kill -9, OOM,
``os._exit``) breaks the executor: the grid raises
:class:`WorkerPoolError` and the next :func:`shared_pool` call replaces
the executor.  Workers are not daemons, so interpreter exit waits in
:func:`shutdown_pools` for a cell that is still running.
"""

from __future__ import annotations

import atexit
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["WorkerPool", "WorkerPoolError", "shared_pool", "shutdown_pools"]


class WorkerPoolError(RuntimeError):
    """A worker process died mid-grid, or the pool is closed."""


def _run_one(fn: Callable[[Any], Any], payload: Any, capture: bool):
    """Execute one cell; with *capture*, under a trace sink, answering
    the cell's events as finished Jsonl lines next to its result."""
    if not capture:
        return fn(payload), None
    from ..metrics.trace import BUS, RingBufferSink

    with BUS.capture(RingBufferSink(capacity=None)) as sink:
        result = fn(payload)
    return result, [event.to_line() for event in sink.events]


def _run_batch(fn: Callable[[Any], Any], items: List[Tuple[int, Any]], capture: bool):
    """Worker side of one batch: its ``(index, result, lines)`` triples."""
    return [(index, *_run_one(fn, payload, capture)) for index, payload in items]


def _clear_inherited_sinks() -> None:
    """Executor initializer.  A forked worker inherits the trace sinks
    the parent had attached; writing to them from here would corrupt
    shared file handles, so each worker starts with a clean bus."""
    from ..metrics.trace import BUS

    del BUS._sinks[:]


class WorkerPool:
    """``workers`` long-lived processes behind one executor.  Each batch
    names its callable (a module-level function, pickled *by reference*),
    so one pool serves every grid of a session."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"pool needs >= 1 worker, got {workers}")
        # imported here, so a run that never starts a pool never loads them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        self.workers = workers
        self._executor = ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_clear_inherited_sinks,
        )
        self.closed = False

    def close(self) -> None:
        """Shut the executor down, waiting for running batches."""
        if not self.closed:
            self.closed = True
            self._executor.shutdown()

    def run_batches(
        self, fn: Callable[[Any], Any], batches: Sequence[Sequence[Tuple[int, Any]]],
        *, capture: bool = False,
    ) -> Dict[int, Tuple[Any, Optional[List[str]]]]:
        """Run *batches* of ``(index, payload)`` pairs across the pool and
        return ``{index: (result, trace-lines)}`` (lines ``None`` without
        *capture*).  The first failed batch's cell exception re-raises
        once every batch has answered; a dead worker closes the pool and
        raises :class:`WorkerPoolError`."""
        if self.closed:
            raise WorkerPoolError("pool is closed")
        from concurrent.futures.process import BrokenProcessPool

        try:
            futures = [self._executor.submit(_run_batch, fn, list(b), capture) for b in batches]
            errors = [future.exception() for future in futures]  # waits for every batch
            for error in errors:
                if isinstance(error, BrokenProcessPool):
                    raise error
        except BrokenProcessPool as exc:
            self.close()
            raise WorkerPoolError(f"a worker of the {self.workers}-wide pool died") from exc
        for error in errors:
            if error is not None:
                raise error
        return {index: (result, lines) for f in futures for index, result, lines in f.result()}


#: workers -> live pool; grids of the same width reuse the same worker
#: processes for the whole session
_POOLS: Dict[int, WorkerPool] = {}


def shared_pool(workers: int) -> WorkerPool:
    """The session-wide persistent pool for this worker count: made on
    first use, reused by every later grid, replaced once closed."""
    pool = _POOLS.get(workers)
    if pool is None or pool.closed:
        pool = WorkerPool(workers)
        _POOLS[workers] = pool
    return pool


def shutdown_pools() -> None:
    """Close every shared pool (idempotent; registered atexit)."""
    for pool in list(_POOLS.values()):
        pool.close()
    _POOLS.clear()


atexit.register(shutdown_pools)
