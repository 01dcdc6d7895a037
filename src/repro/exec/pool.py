"""Persistent worker pool: spawn once, stream batched cell dispatch.

Forking a fresh ``multiprocessing`` pool per grid and shipping every
cell as its own pickled task *dominates* the ~0.27 s cells of the
pinned bench grid (``parallel_cold`` ran at 0.45x serial that way).
:class:`WorkerPool` — the only class in the package that owns
processes — avoids both costs:

* **workers are long-lived**: one set of daemon processes per worker
  count, spawned on first use and reused across every grid of the
  session (:func:`shared_pool`), so the interpreter / page-table fork
  cost is paid once, not per ``run_grid`` call;
* **dispatch is batched**: cells travel as ``(index, payload)`` batches
  over one task queue — a handful of queue messages per grid instead of
  one pickled task per cell — and workers pull batches on demand, so
  load balance survives heterogeneous cell times;
* **results are compact**: each batch answers with one message carrying
  ``(index, result-dict, trace-lines)`` triples; ``run_grid``
  reassembles grid order from the indexes, which is what keeps
  ``workers=N`` byte-identical to serial;
* **worker-side trace capture**: a batch dispatched with
  ``capture=True`` runs each cell under a ring-buffer sink on the
  process-local trace bus and returns the events as finished Jsonl
  lines, so ``run_grid(trace=...)`` works under parallel execution,
  the encoding runs in parallel with the other workers' cells, and the
  parent only concatenates.

Failure semantics: an exception inside a cell is caught, shipped back,
and re-raised in the parent after in-flight batches drain; a worker
that dies hard (kill -9, OOM) is detected by liveness polling and
surfaces as :class:`WorkerPoolError` instead of a deadlock.  Workers
are daemons — an exiting parent never hangs on them.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["WorkerPool", "WorkerPoolError", "shared_pool", "shutdown_pools"]


#: fork where the platform has it (workers inherit the imported
#: package for free), spawn elsewhere
_START_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


class WorkerPoolError(RuntimeError):
    """A worker process died or misbehaved mid-grid."""


def _run_one(fn: Callable[[Any], Any], payload: Any, capture: bool):
    """Execute one cell; with *capture*, under a trace sink, answering
    the cell's events as finished Jsonl lines next to its result."""
    if not capture:
        return fn(payload), None
    from ..metrics.trace import BUS, RingBufferSink, encode_line

    with BUS.capture(RingBufferSink(capacity=None)) as sink:
        result = fn(payload)
    return result, [encode_line(event.to_record()) for event in sink.events]


def _worker_main(task_q, result_q) -> None:
    """Worker loop: pull a batch, run its cells, answer in one message.

    A ``None`` task is the shutdown sentinel.  Any exception raised by a
    cell is shipped back tagged ``"err"`` (the original exception when
    it pickles, a reconstructed :class:`WorkerPoolError` carrying the
    traceback text when it does not) and the worker stays alive for the
    next batch.
    """
    # a forked worker inherits whatever trace sinks the parent had
    # attached at spawn time; writing to them from here would corrupt
    # shared file handles, so start with a clean process-local bus
    try:
        from ..metrics.trace import BUS

        del BUS._sinks[:]
    except Exception:
        pass
    while True:
        task = task_q.get()
        if task is None:
            return
        batch_id, fn, items, capture = task
        out: List[Tuple[int, Any, Optional[List[str]]]] = []
        try:
            for index, payload in items:
                result, lines = _run_one(fn, payload, capture)
                out.append((index, result, lines))
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            try:
                pickle.dumps(exc)
                shipped: BaseException = exc
            except Exception:
                shipped = WorkerPoolError(
                    f"unpicklable {type(exc).__name__} in worker "
                    f"{os.getpid()}:\n{traceback.format_exc()}"
                )
            result_q.put(("err", batch_id, shipped))
            continue
        result_q.put(("ok", batch_id, out))


class WorkerPool:
    """A fixed set of long-lived worker processes behind two queues.

    The pool is function-agnostic: each batch names its callable (a
    module-level function, pickled *by reference* — a few dozen bytes),
    so one pool serves every grid of a session.
    """

    #: seconds between liveness checks while waiting on results
    _POLL_S = 1.0

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"pool needs >= 1 worker, got {workers}")
        self.workers = workers
        self._ctx = multiprocessing.get_context(_START_METHOD)
        self._task_q = self._ctx.Queue()
        self._result_q = self._ctx.Queue()
        self._procs: List[Any] = []
        self._closed = False
        self._spawn_missing()

    # -- lifecycle ----------------------------------------------------------

    def _spawn_missing(self) -> None:
        """Top the pool back up to ``workers`` live processes (replaces
        any that died between grids)."""
        self._procs = [p for p in self._procs if p.is_alive()]
        while len(self._procs) < self.workers:
            proc = self._ctx.Process(
                target=_worker_main,
                args=(self._task_q, self._result_q),
                daemon=True,
                name=f"repro-exec-worker-{len(self._procs)}",
            )
            proc.start()
            self._procs.append(proc)

    @property
    def alive(self) -> int:
        return sum(1 for p in self._procs if p.is_alive())

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, join_timeout: float = 5.0) -> None:
        """Send every worker the shutdown sentinel and reap it."""
        if self._closed:
            return
        self._closed = True
        for _ in self._procs:
            try:
                self._task_q.put(None)
            except Exception:
                break
        for proc in self._procs:
            proc.join(timeout=join_timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        self._procs = []
        for q in (self._task_q, self._result_q):
            try:
                q.close()
                q.join_thread()
            except Exception:
                pass

    # -- dispatch -----------------------------------------------------------

    def run_batches(
        self,
        fn: Callable[[Any], Any],
        batches: Sequence[Sequence[Tuple[int, Any]]],
        *,
        capture: bool = False,
    ) -> Dict[int, Tuple[Any, Optional[List[str]]]]:
        """Stream *batches* of ``(index, payload)`` pairs through the
        pool and return ``{index: (result, trace-lines)}`` (the lines
        are ``None`` without *capture*).

        Batches are pulled by whichever worker frees up first; the
        index mapping makes the answer order-independent.  The first
        cell exception re-raises here once every in-flight batch has
        drained (so the queues are clean for the next grid).
        """
        if self._closed:
            raise WorkerPoolError("pool is closed")
        self._spawn_missing()
        for batch_id, batch in enumerate(batches):
            self._task_q.put((batch_id, fn, list(batch), capture))
        out: Dict[int, Tuple[Any, Optional[List[str]]]] = {}
        first_error: Optional[BaseException] = None
        outstanding = len(batches)
        while outstanding:
            try:
                tag, _batch_id, data = self._result_q.get(timeout=self._POLL_S)
            except Exception:  # queue.Empty — check the workers still live
                if self.alive == 0:
                    raise WorkerPoolError(
                        f"all {self.workers} workers died with "
                        f"{outstanding} batch(es) outstanding"
                    ) from None
                continue
            outstanding -= 1
            if tag == "err":
                if first_error is None:
                    first_error = data
                continue
            for index, result, lines in data:
                out[index] = (result, lines)
        if first_error is not None:
            raise first_error
        return out


# ---------------------------------------------------------------------------
# The shared per-process pool registry.
# ---------------------------------------------------------------------------

#: workers -> live pool; grids of the same width reuse the same worker
#: processes for the whole session
_POOLS: Dict[int, WorkerPool] = {}


def shared_pool(workers: int) -> WorkerPool:
    """The session-wide persistent pool for this worker count.

    Spawned on first use, reused by every subsequent grid, torn down at
    interpreter exit.
    """
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
