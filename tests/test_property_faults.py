"""Property tests for the fault-injection harness.

Two properties, over randomized seeded fault plans:

1. **Never torn, never silent.**  Whatever a random plan does — crash
   at any hit of any point, inject bit-rot into committed bytes — the
   restart either round-trips a consistent state (committed, legally
   in-flight, or buddy-recovered) or *loudly* reports an unrecoverable
   state.  Unrecoverable is only acceptable when no checkpoint ever
   committed (the crash predates the first ``local.commit.done``) or
   when bit-rot landed with no remote copy to fall back to.  A restored
   state whose bytes match no snapshot the application ever produced
   ("TORN") is never acceptable.

2. **The harness observes without perturbing.**  A fault plan that
   injects nothing must leave the simulation byte- and time-identical
   to a run with no injectors installed at all — the crash points are
   pure instrumentation.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.faults.harness import (
    CONSISTENT_OUTCOMES,
    OUTCOME_NO_CRASH,
    OUTCOME_UNRECOVERABLE,
    CrashConsistencyHarness,
    random_case,
)
from repro.faults.crashpoints import BITROT_CAPABLE
from repro.faults.plan import KIND_BITROT, FaultPlan
from repro.config import PrecopyPolicy

pytestmark = pytest.mark.faults


def _acceptable(result, plan) -> bool:
    """The ISSUE acceptance rule: consistent restart or an explicitly
    reported, legitimately unrecoverable state — never silent
    corruption."""
    if result.outcome in CONSISTENT_OUTCOMES or result.outcome == OUTCOME_NO_CRASH:
        return True
    if result.outcome != OUTCOME_UNRECOVERABLE:
        return False
    if "TORN" in result.detail:
        return False  # silent corruption surfaced: hard fail
    # unrecoverable is legitimate only if nothing ever committed, or
    # bit-rot destroyed the single copy (no buddy in this topology)
    never_committed = plan.hits.get("local.commit.done", 0) == 0
    return never_committed or bool(plan.bitrot_injected)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_random_fault_plan_never_returns_torn_data(seed):
    harness, plan = random_case(seed)
    result = harness.run(plan)
    assert _acceptable(result, plan), (
        f"seed={seed} outcome={result.outcome!r} crash={result.crash_point!r} "
        f"detail={result.detail!r} hits={plan.hits} "
        f"bitrot={plan.bitrot_injected}"
    )
    # loud, not silent: any non-consistent ending carries an explanation
    if result.outcome == OUTCOME_UNRECOVERABLE:
        assert result.detail


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1), allow_bitrot=st.booleans())
@example(seed=115, allow_bitrot=True)  # its drawn bit-rot kept restart.done from firing
def test_random_fault_plan_crash_fires(seed, allow_bitrot):
    """A random plan's crash hit is drawn within how often its point
    fires on the case's harness, so the crash always fires."""
    harness, plan = random_case(seed, allow_bitrot=allow_bitrot)
    crash = plan.faults[-1]
    result = harness.run(plan)
    assert crash.consumed, f"seed={seed}: {crash.point}#{crash.hit} never fired ({plan.hits})"
    assert result.outcome != OUTCOME_NO_CRASH


def test_random_plan_draws_the_hit_within_the_fire_count():
    """The crash hit is drawn within how often its point fires on the
    dry run, a bit-rot's hit within how often the bit-rot's point fires
    before that crash; a bit-rot whose point fires only after it, or
    under which the crash would no longer fire, is dropped."""
    kept = 0
    for seed in range(40):

        def dry_run(point, drawn):
            # every bit-rot point fires once before each of the crash
            # point's two hits
            return [
                (name, count)
                for count in (1, 2)
                for name in [p for p in BITROT_CAPABLE if p != point] + [point]
            ]

        plan = FaultPlan.random(seed, dry_run=dry_run)
        crash = plan.faults[-1]
        assert 1 <= crash.hit <= 2
        log = dry_run(crash.point, [])
        before = log[: log.index((crash.point, crash.hit))]
        for rot in plan.faults[:-1]:
            assert rot.kind == KIND_BITROT
            assert (rot.point, rot.hit) in before
            kept += 1

        def rot_after_crash(point, drawn):
            return [(point, 1)] + [(p, 1) for p in BITROT_CAPABLE if p != point]

        plan = FaultPlan.random(seed, dry_run=rot_after_crash)
        assert [f.kind for f in plan.faults] == ["crash"]

        def rot_stops_the_run(point, drawn):
            return dry_run(point, drawn)[:1] if drawn else dry_run(point, drawn)

        plan = FaultPlan.random(seed, dry_run=rot_stops_the_run)
        assert [f.kind for f in plan.faults] == ["crash"]
    assert kept > 5


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@example(seed=2028)  # its bit-rot was drawn past the last local.commit.done
def test_every_drawn_bitrot_fires_before_the_crash(seed):
    harness, plan = random_case(seed)
    harness.run(plan)
    assert all(f.consumed for f in plan.faults), (
        f"seed={seed}: {[(f.point, f.hit, f.kind) for f in plan.pending]} never fired"
    )
    crash_at = plan.fired_log.index((plan.faults[-1].point, plan.faults[-1].hit))
    for rot in plan.faults:
        if rot.kind == KIND_BITROT:
            assert plan.fired_log.index((rot.point, rot.hit)) <= crash_at


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    with_remote=st.booleans(),
)
def test_random_fault_plan_with_remote_never_returns_torn_data(seed, with_remote):
    harness, plan = random_case(seed, allow_bitrot=not with_remote)
    if with_remote and not harness.with_remote:
        # the buddy tier on where the drawn point's case leaves it off
        harness.with_remote, harness.n_steps = True, 6
    result = harness.run(plan)
    assert _acceptable(result, plan), (
        f"seed={seed} remote={with_remote} outcome={result.outcome!r} "
        f"crash={result.crash_point!r} detail={result.detail!r} hits={plan.hits}"
    )


@settings(max_examples=5, deadline=None)
@given(
    workload_seed=st.integers(min_value=0, max_value=2**16),
    precopy=st.sampled_from([PrecopyPolicy.NONE, PrecopyPolicy.CPC]),
)
def test_empty_fault_plan_is_invisible(workload_seed, precopy):
    """A no-op plan must not perturb the run: identical final bytes and
    identical virtual end time vs. a run with no harness at all."""
    base = CrashConsistencyHarness(
        seed=workload_seed, precopy_mode=precopy
    ).run_baseline()
    plan = FaultPlan([])  # installs the injector machinery, fires nothing
    result = CrashConsistencyHarness(seed=workload_seed, precopy_mode=precopy).run(plan)
    assert result.outcome == OUTCOME_NO_CRASH
    assert result.final_state == base.final_state, "harness perturbed the data"
    assert result.end_time == base.end_time, "harness perturbed the schedule"


def test_same_plan_same_seed_is_reproducible():
    """Bitwise-deterministic campaigns: one (plan seed, workload seed)
    pair always produces the same crash, outcome, and restored bytes."""
    runs = []
    for _ in range(2):
        plan = FaultPlan.random(77)
        runs.append(CrashConsistencyHarness(seed=2024).run(plan))
    a, b = runs
    assert (a.outcome, a.crash_point, a.detail) == (b.outcome, b.crash_point, b.detail)
    assert a.restored == b.restored
