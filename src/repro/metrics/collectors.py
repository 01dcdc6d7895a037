"""Campaign-level collectors.

* :class:`CrashOutcomeCounter` — per-crash-point outcome tallies from
  fault-injection campaigns (the ``make faults`` matrix table).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["CrashOutcomeCounter"]


@dataclass
class CrashOutcomeCounter:
    """Tally of fault-injection outcomes, keyed by crash point.

    Fed by the crash-point matrix (tests and ``tools/faultmatrix``):
    each run records ``(crash_point, outcome)`` where outcome is one of
    the :mod:`repro.faults.harness` outcome constants ('consistent',
    'consistent-inflight', 'recovered-remote', 'unrecoverable', ...).
    """

    #: (point, outcome) -> count; None point = run that never crashed.
    counts: Dict[Tuple[str, str], int] = field(default_factory=dict)

    def record(self, point: str, outcome: str) -> None:
        key = (point or "<none>", outcome)
        self.counts[key] = self.counts.get(key, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def by_point(self) -> Dict[str, Dict[str, int]]:
        out: Dict[str, Dict[str, int]] = {}
        for (pt, outcome), n in sorted(self.counts.items()):
            out.setdefault(pt, {})[outcome] = n
        return out

    def by_outcome(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for (_, outcome), n in self.counts.items():
            out[outcome] = out.get(outcome, 0) + n
        return dict(sorted(out.items()))

    def count(self, outcome: str) -> int:
        return sum(n for (_, oc), n in self.counts.items() if oc == outcome)

    def table(self) -> str:
        """Fixed-width outcome table, one row per crash point."""
        rows = self.by_point()
        if not rows:
            return "(no outcomes recorded)"
        width = max(len(pt) for pt in rows)
        lines = [f"{'crash point':<{width}}  outcome                n"]
        lines.append("-" * (width + 26))
        for pt, outcomes in rows.items():
            for outcome, n in sorted(outcomes.items()):
                lines.append(f"{pt:<{width}}  {outcome:<20} {n:>4}")
        totals = self.by_outcome()
        lines.append("-" * (width + 26))
        for outcome, n in totals.items():
            lines.append(f"{'TOTAL':<{width}}  {outcome:<20} {n:>4}")
        return "\n".join(lines)
