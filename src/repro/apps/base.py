"""Application model base: chunk declarations + iteration behaviour.

A model describes, for each of its ranks:

* the **chunk layout** — names, sizes (matching the app's Table-IV
  distribution) and write patterns, one list every rank shares;
* the **iteration schedule** — at which fractions of the compute
  interval each chunk is written (this is what DCPC/DCPCP exploit);
* the **communication schedule** — halo-exchange style bursts on the
  fabric that asynchronous remote checkpoints contend with (§IV's
  'communication noise').

Write patterns:

========== ==========================================================
write_once  written only during initialization (GTC's large static
            arrays -> the checkpoint-size reduction of Fig. 8)
per_iter    rewritten every iteration at fixed mid-interval points
staged      rewritten at several stage boundaries across the interval
            (LAMMPS 'modified across different application stages')
hot         modified until the very end of the interval (LAMMPS'
            3-D result array, Fig. 6) — the DCPCP target
========== ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from ..alloc.chunk import FAULT_COST, Chunk
from ..alloc.nvmalloc import NVAllocator
from ..net.interconnect import Fabric
from ..sim.engine import Engine

__all__ = ["WritePattern", "ChunkSpec", "RankBinding", "ApplicationModel"]


class WritePattern:
    WRITE_ONCE = "write_once"
    PER_ITER = "per_iter"
    STAGED = "staged"
    HOT = "hot"

    #: default write positions (fractions of the compute interval)
    DEFAULT_FRACTIONS = {
        WRITE_ONCE: (0.02,),
        PER_ITER: (0.35, 0.6),
        STAGED: (0.15, 0.4, 0.65, 0.85),
        HOT: (0.25, 0.5, 0.75, 0.97),
    }


@dataclass(frozen=True)
class ChunkSpec:
    """One checkpoint variable of the application."""

    name: str
    nbytes: int
    pattern: str = WritePattern.PER_ITER
    #: override write positions within the interval (fractions in (0,1])
    fractions: Optional[Tuple[float, ...]] = None
    #: byte region each write touches, as ``(offset_frac, len_frac)``
    #: pairs cycled by write index.  ``None`` picks the pattern
    #: default: STAGED chunks write *fixed* partial slices (each stage
    #: reworks its own section — the write locality page-granular
    #: incremental copy exploits), every other pattern rewrites the
    #: whole chunk.
    write_extents: Optional[Tuple[Tuple[float, float], ...]] = None

    #: STAGED default: stage k touches a fixed 15% slice at quarter
    #: offsets, so the per-interval union stays well under the full
    #: chunk and is *stable* across intervals
    STAGED_EXTENTS = ((0.0, 0.15), (0.25, 0.15), (0.5, 0.15), (0.75, 0.15))

    def write_fractions(self, iteration: int) -> Tuple[float, ...]:
        if self.pattern == WritePattern.WRITE_ONCE:
            return WritePattern.DEFAULT_FRACTIONS[self.pattern] if iteration == 0 else ()
        if self.fractions is not None:
            return self.fractions
        return WritePattern.DEFAULT_FRACTIONS[self.pattern]

    def write_extent(self, write_index: int, nbytes: int) -> Tuple[int, int]:
        """Concrete ``(offset, nbytes)`` for the *write_index*-th write
        of an interval."""
        extents = self.write_extents
        if extents is None:
            if self.pattern == WritePattern.STAGED:
                extents = self.STAGED_EXTENTS
            else:
                return (0, nbytes)
        off_frac, len_frac = extents[write_index % len(extents)]
        off = min(int(off_frac * nbytes), max(0, nbytes - 1))
        n = max(1, int(len_frac * nbytes))
        return (off, min(n, nbytes - off))


#: one step of a compiled iteration: ``(at, "write", spec, write_index,
#: offset, nbytes)`` or ``(at, "comm", None, burst_index, 0, bytes)``
Step = Tuple[float, str, Optional[ChunkSpec], int, int, float]


@dataclass
class RankBinding:
    """One rank's live connection to the simulation: its allocator
    (chunks), fabric endpoint, and neighbor set."""

    rank: str
    node_id: int
    allocator: NVAllocator
    engine: Engine
    fabric: Optional[Fabric] = None
    neighbors: Sequence[int] = ()
    #: effective NVM->DRAM migration rate for lazy-restarted chunks
    #: (NVM reads are near-DRAM speed, Table I)
    migration_rate: float = 2.0 * 1024**3
    #: compute-time lost to protection faults so far (accounting)
    fault_time: float = 0.0
    #: compute-time lost to lazy-restart migrations so far
    migration_time: float = 0.0

    def chunk(self, name: str) -> Chunk:
        return self.allocator.chunk(name)

    def charge_fault(self, faults: int) -> float:
        """Convert protection faults into lost compute seconds (the
        paper's 6-12 us per fault)."""
        cost = faults * FAULT_COST
        self.fault_time += cost
        return cost

    def charge_migration(self, nbytes: int) -> float:
        """Lazy-restart copy-on-write: the first write to an
        NVM-resident chunk pays the NVM->DRAM copy."""
        cost = nbytes / self.migration_rate
        self.migration_time += cost
        return cost


class ApplicationModel:
    """Base class; subclasses define name/layout/iteration shape."""

    #: application name (report labels)
    name: str = "app"
    #: target pure-compute seconds per iteration (local checkpoint
    #: frequency in the paper's runs: one checkpoint per interval)
    iteration_compute_time: float = 40.0
    #: bytes each rank exchanges with neighbors per iteration
    comm_bytes_per_iteration: int = 0
    #: number of communication bursts per iteration
    comm_bursts: int = 4

    def __init__(self, checkpoint_mb_per_rank: Optional[float] = None) -> None:
        self.checkpoint_mb_per_rank = checkpoint_mb_per_rank
        #: the layout :meth:`chunk_specs` builds on first use
        self._specs: Optional[List[ChunkSpec]] = None
        #: compiled iteration steps, by :meth:`_schedule`'s key
        self._schedules: Dict[tuple, List[Step]] = {}

    # -- layout --------------------------------------------------------------

    def chunk_specs(self) -> List[ChunkSpec]:
        """The checkpoint variables every rank declares: one list per
        model, built on first use and cached in ``_specs``.  Subclasses
        implement."""
        raise NotImplementedError

    def allocate(self, binding: RankBinding) -> List[Chunk]:
        """Materialize the layout through the Table-III interface.

        Each chunk is annotated with its write pattern's content
        *novelty* (how often a rewrite genuinely changes the bytes) so
        the payload codec layer can model delta/dedup yield for phantom
        chunks — see :data:`repro.core.codec.PATTERN_NOVELTY`.
        """
        from ..core.codec import DEFAULT_NOVELTY, PATTERN_NOVELTY

        chunks = []
        for spec in self.chunk_specs():
            chunk = binding.allocator.nvalloc(spec.name, spec.nbytes, pflag=True)
            chunk.content_novelty = PATTERN_NOVELTY.get(spec.pattern, DEFAULT_NOVELTY)
            chunks.append(chunk)
        return chunks

    def checkpoint_bytes(self) -> int:
        return sum(s.nbytes for s in self.chunk_specs())

    def chunk_size_distribution(self) -> dict:
        """Byte share per Table-IV size bucket (for the T4 bench)."""
        buckets = {
            "500K-1MB": (500 * 1024, 1024 * 1024),
            "10-20MB": (10 * 2**20, 20 * 2**20),
            "50-100MB": (50 * 2**20, 100 * 2**20),
            "above 100MB": (100 * 2**20, float("inf")),
            "other": (0, 0),
        }
        totals = {k: 0 for k in buckets}
        grand = 0
        for spec in self.chunk_specs():
            grand += spec.nbytes
            for key, (lo, hi) in buckets.items():
                if key != "other" and lo <= spec.nbytes <= hi:
                    totals[key] += spec.nbytes
                    break
            else:
                totals["other"] += spec.nbytes
        if grand == 0:
            return {k: 0.0 for k in totals}
        return {k: 100.0 * v / grand for k, v in totals.items()}

    # -- one compute interval ----------------------------------------------------

    def compute_iteration(self, binding: RankBinding, iteration: int):
        """Generator process: one compute interval for one rank.

        Interleaves compute (timeouts), chunk writes at their scheduled
        fractions, and communication bursts; protection-fault costs
        extend the compute time (that is the pre-copy overhead an
        application actually feels).  The steps come from
        :meth:`_schedule`, compiled once per model and iteration shape.
        """
        engine = binding.engine
        chunk_of = binding.allocator.chunk
        # `position` tracks scheduled *compute* progress; faults and
        # communication stalls delay everything after them, so the
        # iteration's wall time is compute + fault costs + comm time
        position = 0.0
        for at, kind, spec, widx, off, n in self._schedule(binding, iteration):
            if at > position:
                yield engine.timeout(at - position)
                position = at
            if kind == "write":
                chunk = chunk_of(spec.name)
                if chunk.nbytes != spec.nbytes:
                    # resized (nvrealloc) after the schedule was compiled
                    off, n = spec.write_extent(widx, chunk.nbytes)
                faults = chunk.touch(n, off)
                cost = binding.charge_fault(faults) if faults else 0.0
                if chunk.migration_bytes_pending:
                    cost += binding.charge_migration(chunk.take_migration_bytes())
                if cost > 0:
                    yield engine.timeout(cost)
            else:
                n_nb = max(1, len(binding.neighbors))
                waits = [
                    binding.fabric.transfer(  # type: ignore[union-attr]
                        binding.node_id, nb, n / n_nb, tag=f"{binding.rank}:app"
                    )
                    for nb in binding.neighbors
                ]
                yield engine.all_of(waits)
        interval = self.iteration_compute_time
        if interval > position:
            yield engine.timeout(interval - position)

    def _schedule(self, binding: RankBinding, iteration: int) -> List[Step]:
        """One iteration's steps, compiled on first use.

        Every rank of a model shares one chunk layout, and the layout
        and iteration shape (interval length, communication volume and
        bursts) are fixed once the model's first iteration runs.  The
        steps therefore depend only on whether this is iteration 0
        (write-once chunks write only then) and on whether the rank
        communicates, and all ranks share each compiled list.
        """
        has_comm = bool(
            self.comm_bytes_per_iteration > 0 and binding.fabric is not None and binding.neighbors
        )
        key = (iteration == 0, has_comm)
        steps = self._schedules.get(key)
        if steps is None:
            steps = self._schedules[key] = self._compile(iteration, has_comm)
        return steps

    def _compile(self, iteration: int, has_comm: bool) -> List[Step]:
        """Every write and burst of one iteration, sorted by position
        (a burst before a write at the same instant, ties in layout
        order).  Write extents are taken at the declared chunk size."""
        interval = self.iteration_compute_time
        steps: List[Step] = []
        for spec in self.chunk_specs():
            for k, frac in enumerate(spec.write_fractions(iteration)):
                off, n = spec.write_extent(k, spec.nbytes)
                steps.append((frac * interval, "write", spec, k, off, n))
        if has_comm:
            per_burst = self.comm_bytes_per_iteration / self.comm_bursts
            for b in range(self.comm_bursts):
                at = (b + 0.5) / self.comm_bursts * interval
                steps.append((at, "comm", None, b, 0, per_burst))
        steps.sort(key=itemgetter(0, 1))
        return steps
