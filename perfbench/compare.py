"""``python -m perfbench compare A.json B.json``: is B worse than A?

One row per workload x end-to-end metric with both values, the relative
change, the bound and a verdict:

* ``better`` — B improved on A by more than the bound;
* ``within`` — the change is inside the bound either way;
* ``worse`` — B is worse than A by more than the bound;
* ``unresolved`` — one side has no value (a run failed or a smoke run
  has too few samples for that percentile).

Every bound comes from ``BENCHMARK.json``; the simulated metrics' bound
there (1e-9) is identity up to rounding, because a change that only
makes the program faster must leave them alone.  The record digest is
compared too: no workload's records depend on the seed (see
:mod:`perfbench.workloads`).  Exit status is 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from . import metrics

__all__ = ["compare", "verdict", "main"]


def verdict(
    base: Optional[float], cand: Optional[float], bound: float, better: str
) -> str:
    if base is None or cand is None:
        return "unresolved"
    if base == cand:
        return "within"
    scale = abs(base) if base else abs(cand)
    change = (cand - base) / scale
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within"


def compare(base: Dict[str, Any], cand: Dict[str, Any]) -> List[Dict[str, Any]]:
    spec = metrics.load_spec()
    rows: List[Dict[str, Any]] = []
    for name in base["workloads"]:
        if name not in cand["workloads"]:
            continue
        a = base["workloads"][name]["end_to_end"]
        b = cand["workloads"][name]["end_to_end"]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            bound = metric["bound"]
            va, vb = a["metrics"].get(key), b["metrics"].get(key)
            rows.append({
                "workload": name, "metric": key, "unit": metric["unit"],
                "baseline": va, "candidate": vb, "bound": bound,
                "delta": None if va is None or vb is None or not va else (vb - va) / abs(va),
                "verdict": verdict(va, vb, bound, metric["better"]),
            })
        same = a.get("digest") == b.get("digest")
        rows.append({
            "workload": name, "metric": "record_digest", "unit": "",
            "baseline": a.get("digest"), "candidate": b.get("digest"),
            "bound": 0.0, "delta": None,
            "verdict": "within" if same else "worse",
        })
        failed = b["failed"] / b["attempted"] if b["attempted"] else 1.0
        rows.append({
            "workload": name, "metric": "failed_share", "unit": "ratio",
            "baseline": a["failed"] / a["attempted"] if a["attempted"] else 1.0,
            "candidate": failed, "bound": 0.0, "delta": None,
            "verdict": "worse" if failed > 0 else "within",
        })
    return rows


def _cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(base_path: str, cand_path: str) -> int:
    with open(base_path, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(cand_path, encoding="utf-8") as fh:
        cand = json.load(fh)
    rows = compare(base, cand)
    print(f"{'workload':<28}{'metric':<24}{'baseline':>14}{'candidate':>14}"
          f"{'delta':>10}{'bound':>9}  verdict")
    for row in rows:
        delta = "-" if row["delta"] is None else f"{row['delta']:+.2%}"
        print(f"{row['workload']:<28}{row['metric']:<24}"
              f"{_cell(row['baseline'])[:13]:>14}{_cell(row['candidate'])[:13]:>14}"
              f"{delta:>10}{row['bound']:>9.2g}  {row['verdict']}")
    worse = [r for r in rows if r["verdict"] == "worse"]
    counts = {v: sum(r["verdict"] == v for r in rows)
              for v in ("better", "within", "worse", "unresolved")}
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if worse else 0
