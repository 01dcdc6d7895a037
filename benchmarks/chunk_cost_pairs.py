"""Alternating runs of ``benchmarks/chunk_cost.py`` against two source
trees: the per-chunk host cost of a change, against its parent.

Runs PAIRS pairs of this tree's ``chunk_cost.py``, one with the base
checkout's ``src/`` on ``PYTHONPATH`` and one with the head's, in the
alternating order of ``perf_pairs.py``.  Both sides run the same
script, so only the program under it differs.  Then, per operation, it
prints each side's quartiles of the per-run medians (p50 is the median
of medians), the change of that median, the pairs head won (a lower
median) and the claim rule of ``perf_pairs.py``: head better on at
least 9 of 10 pairs, and its median better than the base's by more
than the base's interquartile range.

    make chunk-cost BASE=<git-ref>
    python benchmarks/chunk_cost_pairs.py BASE_DIR HEAD_DIR [PAIRS]

The make target exports BASE with ``git archive`` to a temp directory
and passes the working tree as HEAD_DIR.  Every run compiles its
imports from source, as in ``perf_pairs.py``.  One run takes ~5 s, so
ten pairs take ~2 min.  Exits 1 if a run fails.
"""

from __future__ import annotations

import os
import sys
from typing import Dict, List, Sequence

from perf_pairs import alternate, run_from_source, verdict

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "chunk_cost.py")


def parse(text: str) -> Dict[str, float]:
    """``chunk_cost.py``'s table: median us by operation label."""
    lines = text.strip().splitlines()
    out = {}
    for line in lines[1:]:  # the header names the columns
        label, value = line.rsplit(None, 1)
        out[label.strip()] = float(value)
    return out


def run(checkout: str) -> Dict[str, float]:
    """One ``chunk_cost.py`` run on *checkout*'s ``src/``, compiled
    from source.  Raises ``RuntimeError`` on a failed run."""
    return parse(run_from_source([sys.executable, SCRIPT], checkout,
                                 PYTHONPATH=os.path.join(checkout, "src")))


def summarize(base: List[Dict[str, float]], head: List[Dict[str, float]]) -> List[Dict]:
    """Per operation (in the runs' order): the claim rule's verdict on
    its per-run medians, lower is better."""
    return [
        {"operation": label,
         **verdict([r[label] for r in base], [r[label] for r in head], lower_is_better=True)}
        for label in base[0]
    ]


def _quartiles_text(q) -> str:
    return "/".join(f"{v:.1f}" for v in q)


def report(rows: List[Dict], pairs: int) -> None:
    width = max(len(r["operation"]) for r in rows)
    print(f"{'operation':<{width}}  {'base us p25/p50/p75':>20}  {'head us p25/p50/p75':>20}  "
          f"{'change':>7}  {'won':>5}  {'gap':>6}  {'base IQR':>8}  claim")
    for r in rows:
        change = 100.0 * (r["head"][1] / r["base"][1] - 1.0)
        print(f"{r['operation']:<{width}}  {_quartiles_text(r['base']):>20}  "
              f"{_quartiles_text(r['head']):>20}  {change:+6.1f}%  "
              f"{r['won']:>2}/{pairs:<2}  {r['gap']:6.1f}  {r['iqr']:8.1f}  "
              f"{'yes' if r['claim'] else 'no'}")


def main(argv: Sequence[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    base_dir, head_dir = argv[:2]
    pairs = int(argv[2]) if len(argv) > 2 else 10
    try:
        runs = alternate(lambda checkout, i: run(checkout), base_dir, head_dir, pairs)
    except RuntimeError as exc:
        print(f"chunk-cost: {exc}", file=sys.stderr)
        return 1
    print(f"chunk cost: {pairs} alternating pairs, quartiles of the per-run medians")
    report(summarize(runs["base"], runs["head"]), pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
