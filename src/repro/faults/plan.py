"""Fault plans: what goes wrong, where, and on which hit.

A :class:`FaultPlan` is an installable :class:`~.crashpoints.FaultInjector`
carrying a list of :class:`ScriptedFault` entries.  Two fault kinds:

* ``crash`` — raise :class:`~repro.errors.CrashInjected` at the Nth hit
  of a named crash point (power loss at exactly that persistence-
  ordering point).  Before raising, the plan invokes its ``on_crash``
  callback so a harness can freeze the simulated world (kill processes,
  drop unflushed store state) at the instant of the crash.
* ``bitrot`` — flip durable bytes of a chunk's committed NVM shadow
  (media corruption on the emulated DIMM).  Only valid at points that
  carry ``allocator`` + ``store`` context
  (:data:`~.crashpoints.BITROT_CAPABLE`); the restart path must detect
  it via checksums and fall back to the buddy or report the chunk.

Plans are either scripted (:meth:`FaultPlan.crash_at`, explicit fault
lists) or drawn from a seeded RNG stream (:meth:`FaultPlan.random`), so
a whole randomized campaign replays bit-identically from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import CrashInjected, FaultInjectionError
from ..sim.rng import RngStreams
from .crashpoints import BITROT_CAPABLE, FaultInjector, REGISTRY

__all__ = ["KIND_CRASH", "KIND_BITROT", "ScriptedFault", "FaultPlan"]

KIND_CRASH = "crash"
KIND_BITROT = "bitrot"


@dataclass
class ScriptedFault:
    """One planned fault: fire *kind* at the *hit*-th hit of *point*."""

    point: str
    hit: int = 1
    kind: str = KIND_CRASH
    #: bit-rot target chunk name (None: first committed chunk found).
    chunk: Optional[str] = None
    #: byte offset to corrupt within the committed region.
    offset: int = 0
    consumed: bool = False

    def __post_init__(self) -> None:
        if self.point not in REGISTRY:
            raise FaultInjectionError(f"unknown crash point {self.point!r}")
        if self.kind not in (KIND_CRASH, KIND_BITROT):
            raise FaultInjectionError(f"unknown fault kind {self.kind!r}")
        if self.hit < 1:
            raise FaultInjectionError(f"hit index must be >= 1, got {self.hit}")
        if self.kind == KIND_BITROT and self.point not in BITROT_CAPABLE:
            raise FaultInjectionError(
                f"bit-rot faults need allocator/store context; point "
                f"{self.point!r} is not in BITROT_CAPABLE"
            )


class FaultPlan(FaultInjector):
    """A deterministic schedule of injected faults."""

    def __init__(self, faults: Sequence[ScriptedFault] = (), name: str = "plan") -> None:
        self.name = name
        self.faults: List[ScriptedFault] = list(faults)
        #: per-point hit counters (every hit, fault or not).
        self.hits: Dict[str, int] = {}
        #: chronological (point, hit_index) log of every hit seen.
        self.fired_log: List[Tuple[str, int]] = []
        #: crash point that fired, or None if the run survived the plan.
        self.crashed_at: Optional[str] = None
        #: (chunk_name, region_id, offset) per injected bit-rot.
        self.bitrot_injected: List[Tuple[str, str, int]] = []
        #: harness callback invoked with the point name just before the
        #: CrashInjected raise (freeze-the-world hook).
        self.on_crash: Optional[Callable[[str], None]] = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def crash_at(cls, point: str, hit: int = 1) -> "FaultPlan":
        """A plan with a single crash at the Nth hit of *point*."""
        return cls([ScriptedFault(point, hit=hit)], name=f"crash@{point}#{hit}")

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        points: Optional[Sequence[str]] = None,
        max_hit: int = 6,
        allow_bitrot: bool = True,
        dry_run: Optional[Callable[[str, List[ScriptedFault]], List[Tuple[str, int]]]] = None,
    ) -> "FaultPlan":
        """A seeded random plan: one crash at a uniformly chosen point
        and hit index, optionally preceded by a bit-rot fault.  The
        same seed always yields the same plan.

        Without *dry_run* both hits are drawn from ``1..max_hit``.
        Given *dry_run* — ``dry_run(point, faults)`` is the
        :attr:`fired_log` of the run the plan will drive, with the crash
        drawn at *point* left out and *faults* in — the crash hit is
        drawn within how often the point fires on that run, and the
        bit-rot hit within how often the bit-rot's point fires before
        that crash.  A bit-rot whose point never fires before the
        crash, or under which the crash would no longer fire, is
        dropped: every fault of the plan fires."""
        rng = RngStreams(seed).stream("faults.plan")
        names = list(points) if points is not None else list(REGISTRY)
        rot: Optional[ScriptedFault] = None
        if allow_bitrot and rng.random() < 0.3:
            rot = ScriptedFault(
                str(rng.choice(list(BITROT_CAPABLE))),
                kind=KIND_BITROT,
                offset=int(rng.integers(0, 64)),
            )
        point = str(rng.choice(names))
        if dry_run is None:
            crash = ScriptedFault(point, hit=int(rng.integers(1, max_hit + 1)))
            if rot is not None:
                rot.hit = int(rng.integers(1, max_hit + 1))
        else:
            log = dry_run(point, [])
            hits = sum(name == point for name, _ in log)
            crash = ScriptedFault(point, hit=int(rng.integers(1, max(hits, 1) + 1)))
            if rot is not None:
                # the bit-rot point's hits before the crash fires; the
                # run under the bit-rot is the same up to its hit
                end = log.index((point, crash.hit)) if hits else len(log)
                before = sum(name == rot.point for name, _ in log[:end])
                if before:
                    rot.hit = int(rng.integers(1, before + 1))
                if not before or sum(
                    name == point for name, _ in dry_run(point, [rot])
                ) < crash.hit:
                    # it cannot fire before the crash, or it keeps the
                    # run from reaching the crash
                    rot = None
        faults = [crash] if rot is None else [rot, crash]
        return cls(faults, name=f"random(seed={seed})")

    # -- firing -------------------------------------------------------------

    def on_fire(self, name: str, info: Dict[str, Any]) -> None:
        count = self.hits.get(name, 0) + 1
        self.hits[name] = count
        self.fired_log.append((name, count))
        for fault in self.faults:
            if fault.consumed or fault.point != name or fault.hit != count:
                continue
            fault.consumed = True
            if fault.kind == KIND_BITROT:
                self._inject_bitrot(fault, info)
            else:
                self.crashed_at = name
                if self.on_crash is not None:
                    self.on_crash(name)
                raise CrashInjected(
                    f"injected crash at {name!r} (hit {count})", point=name
                )

    # -- bit-rot ------------------------------------------------------------

    def _inject_bitrot(self, fault: ScriptedFault, info: Dict[str, Any]) -> None:
        allocator = info.get("allocator")
        store = info.get("store")
        if allocator is None or store is None:
            raise FaultInjectionError(
                f"bit-rot at {fault.point!r} needs allocator+store in fire() info"
            )
        target = None
        for chunk in allocator.persistent_chunks():
            if fault.chunk is not None and chunk.name != fault.chunk:
                continue
            if chunk.committed_version >= 0 and not chunk.phantom:
                target = chunk
                break
        if target is None:
            return  # nothing committed yet: rot has nothing to eat
        region = target.committed_region()
        offset = fault.offset % max(1, target.nbytes)
        store.corrupt(region.region_id, offset)
        self.bitrot_injected.append((target.name, region.region_id, offset))

    # -- introspection ------------------------------------------------------

    @property
    def pending(self) -> List[ScriptedFault]:
        return [f for f in self.faults if not f.consumed]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FaultPlan {self.name!r} faults={len(self.faults)} crashed_at={self.crashed_at!r}>"
