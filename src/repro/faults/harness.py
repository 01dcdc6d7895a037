"""The standing crash-consistency harness.

:class:`CrashConsistencyHarness` builds a small but complete
checkpointing world — real-data chunks, a coordinated local
checkpointer with optional CPC pre-copy, optionally a buddy node with
the streaming remote helper — runs a deterministic write/compute/
checkpoint workload under an installed :class:`~.plan.FaultPlan`, and
when the plan crashes it:

1. freezes the world at the crash instant (every DES process is
   :meth:`~repro.sim.engine.Process.abort`-ed synchronously, then both
   stores drop their unflushed writes — power loss);
2. runs the :class:`~.checker.ConsistencyChecker` against the surviving
   durable state, with a content *oracle* recorded through the same
   crash-point hooks (every payload ever staged toward NVM or the
   buddy), so torn data is detected byte-exactly;
3. restarts through the real recovery path
   (:class:`~repro.core.restart.RestartManager`, buddy fallback if a
   buddy exists) — crash points *inside* recovery fire too, and a
   second injected crash triggers one more power loss + retry;
4. classifies the outcome: consistent (restored = last committed
   state), consistent-inflight/mixed (an in-flight commit landed),
   recovered-remote, or unrecoverable — which is always *reported*,
   never silent.

:func:`matrix_case` maps every registered crash point to a harness
configuration + fault schedule that provably reaches it after at least
one commit; the crash-point matrix test and ``tools/faultmatrix`` both
iterate it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Set, Tuple

from .._numpy import np
from ..alloc.chunk import Chunk
from ..alloc.nvmalloc import NVAllocator
from ..config import CheckpointConfig, PrecopyPolicy
from ..core.context import NodeContext, make_standalone_context
from ..core.engine import LocalCheckpointer
from ..core.remote import RemoteHelper, RemoteTarget
from ..core.restart import RestartManager, RestartReport
from ..errors import CheckpointError, CrashInjected, NoCheckpointAvailable, ReproError
from ..memory.persistence import InMemoryStore
from ..net.interconnect import Fabric
from ..sim.engine import Engine, Process
from ..sim.rng import RngStreams
from .checker import ConsistencyChecker, ConsistencyReport, payload_digest
from .crashpoints import LAYER_CODEC, FaultInjector, all_points, install, point
from .plan import FaultPlan, ScriptedFault, KIND_BITROT

__all__ = [
    "OUTCOME_NO_CRASH",
    "OUTCOME_CONSISTENT",
    "OUTCOME_INFLIGHT",
    "OUTCOME_MIXED",
    "OUTCOME_REMOTE",
    "OUTCOME_UNRECOVERABLE",
    "CONSISTENT_OUTCOMES",
    "OracleRecorder",
    "CrashRunResult",
    "CrashConsistencyHarness",
    "matrix_case",
    "random_case",
]

OUTCOME_NO_CRASH = "no-crash"
#: every chunk restored to the last committed state the oracle recorded.
OUTCOME_CONSISTENT = "consistent"
#: every chunk restored to a staged-but-not-yet-acknowledged snapshot
#: (the interrupted commit landed durably before the crash).
OUTCOME_INFLIGHT = "consistent-inflight"
#: chunk-wise mix of committed and in-flight snapshots — legal, since
#: per-chunk commits (nvchkptid) flip independently.
OUTCOME_MIXED = "consistent-mixed"
OUTCOME_REMOTE = "recovered-remote"
OUTCOME_UNRECOVERABLE = "unrecoverable"

CONSISTENT_OUTCOMES = (OUTCOME_CONSISTENT, OUTCOME_INFLIGHT, OUTCOME_MIXED, OUTCOME_REMOTE)


class OracleRecorder(FaultInjector):
    """Passive injector that shadows the commit protocol through the
    same hooks the faults use, keeping a byte-exact oracle:

    * ``acceptable[name]`` — digest of every payload ever staged toward
      an NVM version or the buddy (restored data MUST be one of these);
    * ``committed[name]`` — digest of the chunk's committed payload as
      of the last ``local.commit.done``;
    * ``inflight[name]`` — digests staged since that commit (what an
      interrupted commit could legally land).
    """

    def __init__(self) -> None:
        self.acceptable: Dict[str, Set[str]] = {}
        self.committed: Dict[str, str] = {}
        self.inflight: Dict[str, Set[str]] = {}
        self.remote_acceptable: Dict[str, Set[str]] = {}

    def seed_chunk(self, chunk: Chunk) -> None:
        """Record a chunk's initial (all-zero) content as acceptable."""
        d = payload_digest(np.zeros(chunk.nbytes, dtype=np.uint8))
        self.acceptable.setdefault(chunk.name, set()).add(d)
        self.remote_acceptable.setdefault(chunk.name, set()).add(d)

    def _record_staged(self, chunk: Chunk) -> None:
        if chunk.phantom or chunk.dram is None:
            return
        d = payload_digest(chunk.dram)
        self.acceptable.setdefault(chunk.name, set()).add(d)
        self.inflight.setdefault(chunk.name, set()).add(d)

    def on_fire(self, name: str, info: Dict[str, Any]) -> None:
        if name in ("local.stage.after", "precopy.finalize.after"):
            self._record_staged(info["chunk"])
        elif name in ("remote.stream.after_stage", "remote.round.after_stage"):
            chunk = info["chunk"]
            if not chunk.phantom and chunk.dram is not None:
                self.remote_acceptable.setdefault(chunk.name, set()).add(
                    payload_digest(chunk.dram)
                )
        elif name == "local.commit.done":
            allocator: NVAllocator = info["allocator"]
            for chunk in allocator.persistent_chunks():
                if chunk.committed_version < 0 or chunk.phantom:
                    continue
                d = payload_digest(chunk.committed_region().read(0, chunk.nbytes))
                self.committed[chunk.name] = d
                self.acceptable.setdefault(chunk.name, set()).add(d)
                self.inflight[chunk.name] = set()


@dataclass
class CrashRunResult:
    """What one harness run under one fault plan produced."""

    outcome: str
    crash_point: Optional[str]
    plan: FaultPlan
    report: Optional[ConsistencyReport] = None
    remote_report: Optional[ConsistencyReport] = None
    restart_report: Optional[RestartReport] = None
    #: chunk name -> restored payload digest (post-recovery).
    restored: Dict[str, str] = field(default_factory=dict)
    #: chunk name -> final payload digest (fault-free runs).
    final_state: Dict[str, str] = field(default_factory=dict)
    end_time: float = 0.0
    double_crash: bool = False
    detail: str = ""

    @property
    def consistent(self) -> bool:
        return self.outcome in CONSISTENT_OUTCOMES


@dataclass
class _World:
    """One freshly built simulated world."""

    engine: Engine
    store: InMemoryStore
    src: NodeContext
    allocator: NVAllocator
    checkpointer: LocalCheckpointer
    chunks: List[Chunk]
    buddy_store: Optional[InMemoryStore] = None
    dst: Optional[NodeContext] = None
    fabric: Optional[Fabric] = None
    helper: Optional[RemoteHelper] = None
    procs: List[Process] = field(default_factory=list)


class CrashConsistencyHarness:
    """Deterministic workload + crash/restart driver for fault plans."""

    PID = "p0"

    def __init__(
        self,
        *,
        n_chunks: int = 3,
        chunk_bytes: int = 2048,
        n_steps: int = 4,
        seed: int = 2024,
        precopy_mode: str = PrecopyPolicy.CPC,
        with_remote: bool = False,
        local_interval: float = 10.0,
        remote_interval: float = 30.0,
        codec: str = "raw",
    ) -> None:
        if n_chunks < 1 or n_steps < 2:
            raise ValueError("harness needs >= 1 chunk and >= 2 steps")
        self.n_chunks = n_chunks
        self.chunk_bytes = chunk_bytes
        self.n_steps = n_steps
        self.seed = seed
        self.precopy_mode = precopy_mode
        self.with_remote = with_remote
        self.local_interval = local_interval
        self.remote_interval = remote_interval
        self.codec = codec

    # ------------------------------------------------------------------
    # World construction.
    # ------------------------------------------------------------------

    def _build(self) -> _World:
        engine = Engine()
        store = InMemoryStore()
        src = make_standalone_context(store=store, engine=engine, name="n0")
        allocator = NVAllocator(
            self.PID, src.nvmm, src.dram, clock=lambda: engine.now
        )
        policy = PrecopyPolicy(mode=self.precopy_mode, codec=self.codec)
        checkpointer = LocalCheckpointer(src, allocator, policy, tag=self.PID)
        world = _World(
            engine=engine,
            store=store,
            src=src,
            allocator=allocator,
            checkpointer=checkpointer,
            chunks=[],
        )
        if self.with_remote:
            world.buddy_store = InMemoryStore()
            world.dst = make_standalone_context(
                store=world.buddy_store, engine=engine, name="n1"
            )
            world.fabric = Fabric(engine, 2)
            cfg = CheckpointConfig(
                local_interval=self.local_interval,
                remote_interval=self.remote_interval,
                remote_precopy=True,
                precopy=policy,
            )
            world.helper = RemoteHelper(
                0, src, world.fabric, 1, world.dst, [allocator], cfg
            )
            checkpointer.on_complete.append(
                lambda stats: world.helper.notify_local_checkpoint(self.PID)
            )
        for i in range(self.n_chunks):
            # sizes vary so big-chunk-first pre-copy ordering is exercised
            chunk = allocator.nvalloc(f"c{i}", self.chunk_bytes * (i + 1))
            world.chunks.append(chunk)
        return world

    def _pattern(self, rng: RngStreams, step: int, idx: int, nbytes: int) -> np.ndarray:
        return rng.stream(f"write.{step}.{idx}").integers(
            0, 256, size=nbytes, dtype=np.uint8
        )

    def _workload(self, world: _World):
        """Generator process: the whole application lifetime."""
        engine = world.engine
        rng = RngStreams(self.seed)
        world.checkpointer.start_background()
        if world.helper is not None:
            world.procs.append(
                engine.process(world.helper.run(), name="helper")
            )
        if world.checkpointer._precopy_proc is not None:
            world.procs.append(world.checkpointer._precopy_proc)
        for step in range(self.n_steps):
            for idx, chunk in enumerate(world.chunks):
                chunk.write(0, self._pattern(rng, step, idx, chunk.nbytes))
            yield engine.timeout(self.local_interval * 0.6)
            yield from world.checkpointer.checkpoint(blocking=False)
            yield engine.timeout(self.local_interval * 0.4)
        world.checkpointer.stop_background()
        if world.helper is not None:
            world.helper.stop()

    # ------------------------------------------------------------------
    # Running.
    # ------------------------------------------------------------------

    def run_baseline(self) -> CrashRunResult:
        """The workload with *no* injectors installed at all — the
        reference a fault-free plan must be byte-identical to."""
        world = self._build()
        proc = world.engine.process(self._workload(world), name="workload")
        world.procs.append(proc)
        world.engine.run()
        assert proc.ok, f"baseline workload failed: {proc.exception!r}"
        result = CrashRunResult(
            outcome=OUTCOME_NO_CRASH, crash_point=None, plan=FaultPlan([], name="baseline")
        )
        result.final_state = {
            c.name: payload_digest(c.dram) for c in world.chunks if c.dram is not None
        }
        result.end_time = world.engine.now
        return result

    def run(self, plan: FaultPlan) -> CrashRunResult:
        """Run the workload under *plan*; on crash, freeze, check,
        restart, classify."""
        world = self._build()
        recorder = OracleRecorder()
        for chunk in world.chunks:
            recorder.seed_chunk(chunk)

        def freeze(point_name: str) -> None:
            # power loss NOW: no process runs another instruction, and
            # everything not yet flushed is gone
            for proc in world.procs:
                proc.abort()
            world.store.crash()
            if world.buddy_store is not None:
                world.buddy_store.crash()

        plan.on_crash = freeze
        with install(recorder), install(plan):
            proc = world.engine.process(self._workload(world), name="workload")
            world.procs.append(proc)
            world.engine.run()
            if plan.crashed_at is None:
                if not proc.ok:
                    raise AssertionError(
                        f"workload died without an injected crash: {proc.exception!r}"
                    )
                result = CrashRunResult(
                    outcome=OUTCOME_NO_CRASH, crash_point=None, plan=plan
                )
                result.final_state = {
                    c.name: payload_digest(c.dram)
                    for c in world.chunks
                    if c.dram is not None
                }
                result.end_time = world.engine.now
                return result
            # the crash already froze the world; recovery runs with the
            # injectors still installed so restart-path points fire too
            return self._recover(world, plan, recorder)

    # ------------------------------------------------------------------
    # Recovery + classification.
    # ------------------------------------------------------------------

    def _acceptable(self, recorder: OracleRecorder) -> Dict[str, Set[str]]:
        out: Dict[str, Set[str]] = {}
        for name, digests in recorder.acceptable.items():
            out[name] = set(digests) | recorder.remote_acceptable.get(name, set())
        return out

    def _recover(
        self, world: _World, plan: FaultPlan, recorder: OracleRecorder
    ) -> CrashRunResult:
        result = CrashRunResult(
            outcome=OUTCOME_UNRECOVERABLE, crash_point=plan.crashed_at, plan=plan
        )
        acceptable = self._acceptable(recorder)
        checker = ConsistencyChecker(world.store)
        result.report = checker.check_process(self.PID, expected=acceptable)
        buddy_has_meta = (
            world.buddy_store is not None
            and world.buddy_store.get_meta(f"remote/proc:{self.PID}") is not None
        )
        if buddy_has_meta:
            result.remote_report = ConsistencyChecker(
                world.buddy_store
            ).check_remote_target(self.PID, expected=self._acceptable_remote(recorder))
            if not result.remote_report.ok:
                result.detail = "buddy-side violations: " + result.remote_report.summary()
                return result
        if not result.report.ok:
            result.detail = result.report.summary()
            return result

        # full restart through the real recovery path (hooks still live)
        for attempt in (1, 2):
            try:
                restart_report = self._restart_once(world, buddy_has_meta)
                break
            except CrashInjected:
                # double failure: power loss during recovery, recover again
                result.double_crash = True
                world.store.crash()
                if world.buddy_store is not None:
                    world.buddy_store.crash()
                if attempt == 2:
                    result.detail = "crash injected in recovery twice; giving up"
                    return result
            except NoCheckpointAvailable as err:
                result.detail = f"reported unrecoverable: {err}"
                return result
            except ReproError as err:
                result.detail = f"restart failed: {err}"
                return result

        result.restart_report = restart_report
        assert restart_report.allocator is not None
        restored = {
            c.name: payload_digest(c.dram)
            for c in restart_report.allocator.persistent_chunks()
            if c.dram is not None
        }
        result.restored = restored
        result.end_time = restart_report.end

        torn = [
            name for name, d in restored.items() if d not in acceptable.get(name, set())
        ]
        if torn:
            result.outcome = OUTCOME_UNRECOVERABLE
            result.detail = f"TORN restored data in chunks {torn}"
            if result.report is not None:
                result.report.add("torn-restore", torn[0], result.detail)
            return result
        if restart_report.chunks_remote > 0:
            result.outcome = OUTCOME_REMOTE
            return result
        zeros = {
            c.name: payload_digest(np.zeros(c.nbytes, dtype=np.uint8))
            for c in restart_report.allocator.persistent_chunks()
        }
        kinds = set()
        for name, d in restored.items():
            committed = recorder.committed.get(name, zeros[name])
            if d == committed:
                kinds.add("committed")
            elif d in recorder.inflight.get(name, set()):
                kinds.add("inflight")
            else:
                kinds.add("committed")  # an older acceptable snapshot
        if kinds == {"committed"}:
            result.outcome = OUTCOME_CONSISTENT
        elif kinds == {"inflight"}:
            result.outcome = OUTCOME_INFLIGHT
        else:
            result.outcome = OUTCOME_MIXED
        return result

    def _acceptable_remote(self, recorder: OracleRecorder) -> Dict[str, Set[str]]:
        out: Dict[str, Set[str]] = {}
        for name, digests in recorder.remote_acceptable.items():
            out[name] = set(digests) | recorder.acceptable.get(name, set())
        return out

    def _restart_once(self, world: _World, buddy_has_meta: bool) -> RestartReport:
        """One recovery attempt on fresh contexts sharing the survived
        stores (the dead node's engine state is gone with it)."""
        engine = Engine()
        ctx = make_standalone_context(store=world.store, engine=engine, name="n0r")
        fabric = None
        remote_target = None
        remote_node = None
        if buddy_has_meta:
            dst = make_standalone_context(
                store=world.buddy_store, engine=engine, name="n1r"
            )
            fabric = Fabric(engine, 2)
            try:
                remote_target = RemoteTarget.reattach(self.PID, dst)
                remote_node = 1
            except CheckpointError:
                remote_target = None
        manager = RestartManager(ctx, fabric=fabric, node_id=0)
        # a codec-enabled run restores through the survived block store
        # (digest verification + refcount rebuild ride on restart)
        block_store = getattr(world.checkpointer.destination, "block_store", None)
        return manager.restart_process_sync(
            self.PID,
            remote_target=remote_target,
            remote_node=remote_node,
            block_store=block_store,
        )


# ---------------------------------------------------------------------------
# The canonical matrix: one reachable case per registered crash point.
# ---------------------------------------------------------------------------


def matrix_case(point_name: str, seed: int = 2024) -> Tuple[CrashConsistencyHarness, FaultPlan]:
    """Harness + fault plan that provably reaches *point_name* after at
    least one successful local commit (so recovery has something to
    recover to)."""
    cp = point(point_name)
    n_chunks = 3
    kwargs: Dict[str, Any] = dict(n_chunks=n_chunks, seed=seed)
    faults: List[ScriptedFault]
    # per-step points fire once per checkpoint; per-chunk points fire
    # n_chunks times per checkpoint — land the crash in step >= 2
    hit = n_chunks + 1 if cp.per_chunk else 2

    if cp.layer in ("local", "chunk") and point_name not in ("local.begin",):
        if point_name in (
            "local.copy.before",
            "local.copy.after",
            "local.stage.after",
            "local.commit.after_flip",
            "chunk.stage.mid",
        ):
            # the coordinated step only copies chunks still dirty; with
            # pre-copy on they may all be clean, so use the no-pre-copy
            # baseline where every chunk is copied every checkpoint
            kwargs["precopy_mode"] = PrecopyPolicy.NONE
        faults = [ScriptedFault(point_name, hit=hit)]
    elif point_name == "local.begin":
        faults = [ScriptedFault(point_name, hit=2)]
    elif cp.layer == "store":
        kwargs["precopy_mode"] = PrecopyPolicy.NONE
        # ckpt 1's data flush covers the 2*n_chunks region creations
        # (hits 1..2n); ckpt 2's data flush re-stages n chunks, so hit
        # 2n+2 lands mid-flush with a committed checkpoint behind it
        hit = 2 * n_chunks + 2 if point_name == "store.flush.mid" else 3
        faults = [ScriptedFault(point_name, hit=hit)]
    elif cp.layer == "precopy":
        kwargs["precopy_mode"] = PrecopyPolicy.CPC
        faults = [ScriptedFault(point_name, hit=n_chunks + 1)]
    elif cp.layer == "remote":
        kwargs.update(with_remote=True, n_steps=8)
        faults = [ScriptedFault(point_name, hit=1)]
    elif cp.layer == "restart":
        if point_name == "restart.fetch_remote":
            # remote fallback needs a corrupt local chunk AND a buddy
            # copy: rot the committed version late, crash before the
            # next commit can paper over it, then crash again mid-fetch
            kwargs.update(with_remote=True, n_steps=8)
            faults = [
                ScriptedFault("local.commit.done", hit=5, kind=KIND_BITROT),
                ScriptedFault("local.begin", hit=6),
                ScriptedFault(point_name, hit=1),
            ]
        else:
            faults = [
                ScriptedFault("local.begin", hit=2),
                ScriptedFault(point_name, hit=1),
            ]
    else:  # pragma: no cover - registry and cases must stay in sync
        raise AssertionError(f"no matrix case for {point_name!r}")
    return CrashConsistencyHarness(**kwargs), FaultPlan(
        faults, name=f"matrix@{point_name}"
    )


def random_case(
    plan_seed: int, seed: int = 2024, *, allow_bitrot: bool = True
) -> Tuple[CrashConsistencyHarness, FaultPlan]:
    """A seeded random fault plan (:meth:`FaultPlan.random` over
    :func:`matrix_points`) on the harness :func:`matrix_case` builds for
    its drawn crash point, so that the crash can be reached: a
    ``remote.*`` point runs with the buddy tier on, and a ``restart.*``
    point behind the case's own earlier faults (the ``local.begin``
    crash whose recovery runs the restart path).  The crash hit and a
    drawn bit-rot's hit are drawn from a dry run of that harness under
    those earlier faults, so every fault of the plan fires, the bit-rot
    before the crash."""
    cases: Dict[str, Tuple[CrashConsistencyHarness, List[ScriptedFault]]] = {}

    def dry_run(point_name: str, drawn: List[ScriptedFault]) -> List[Tuple[str, int]]:
        harness, case = matrix_case(point_name, seed=seed)
        leading = case.faults[:-1] if point(point_name).layer == "restart" else []
        cases[point_name] = harness, leading
        dry = FaultPlan([replace(f) for f in drawn + leading], name="dry run")
        harness.run(dry)
        return dry.fired_log

    plan = FaultPlan.random(
        plan_seed, points=matrix_points(), allow_bitrot=allow_bitrot, dry_run=dry_run
    )
    harness, leading = cases[plan.faults[-1].point]
    plan.faults[-1:-1] = leading
    return harness, plan


def matrix_points() -> List[str]:
    """Canonical ordering of the full crash-point matrix.

    The codec layer is excluded: its points fire only under a non-raw
    payload codec, which this standalone harness does not run —
    tests/test_codec.py runs a codec-enabled crash matrix for them."""
    return [cp.name for cp in all_points() if cp.layer != LAYER_CODEC]
