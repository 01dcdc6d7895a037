"""Alternating pairs of ``perfbench measure`` on two checkouts: the
claim rule for a performance gain as one command.

Runs PAIRS pairs of ``python -m perfbench measure --workload W --seed S
--seconds 10``, one run in the base checkout and one in the head
checkout per pair, each pair on its own seed (FIRST, FIRST+1, ...).
The order inside a pair alternates (base first on even pairs, head
first on odd ones), so a drift of the host's speed lands on both sides.
Then, for every end-to-end metric that ``BENCHMARK.json`` declares, it
prints each side's median and quartiles, the pairs head won, and the
verdict of the claim rule: head better on at least 9 of 10 pairs, and
its median better than the base's by more than the base's
interquartile range.

    make perf-pairs BASE=<git-ref> WORKLOAD=<name> [SEED=<first seed>]
    python benchmarks/perf_pairs.py BASE_DIR HEAD_DIR WORKLOAD [FIRST [PAIRS]]

The make target exports BASE with ``git archive`` to a temp directory
and passes the working tree as HEAD_DIR.  Every run compiles its
imports from source (see :func:`measure`), so ``setup_s`` compares
like with like whatever bytecode either tree holds.  Each run takes
~15 s, so ten pairs take ~5 min.  Exits 1 if a run fails or reports incorrect output.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Sequence, Tuple

#: share of pairs head must win for a claimed gain
WIN_SHARE = 0.9


def measure(checkout: str, workload: str, seed: int) -> Dict[str, float]:
    """One ``perfbench measure`` run in *checkout*: its end-to-end
    metrics, by name.  Raises ``RuntimeError`` on a failed run.

    The run neither reads nor writes bytecode: ``PYTHONPYCACHEPREFIX``
    points at a fresh, empty directory and ``PYTHONDONTWRITEBYTECODE``
    keeps it empty, so both sides compile their imports from source,
    as in a fresh checkout.  Bytecode left in one tree and not in the
    other, or stale in one, would otherwise move ``setup_s``."""
    cmd = [sys.executable, "-m", "perfbench", "measure", "--workload", workload,
           "--seed", str(seed), "--seconds", "10"]
    with tempfile.TemporaryDirectory(prefix="perf-pairs-pycache-") as pycache:
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": pycache}
        proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: perfbench exited {proc.returncode}")
    run = json.loads(lines[-1])
    if not run["correct"] or run["failed"]:
        raise RuntimeError(f"{checkout} seed {seed}: incorrect run ({run['failed']} failed)")
    return {name: m["value"] for name, m in run["metrics"].items()}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base: Sequence[float], head: Sequence[float], lower_is_better: bool) -> Dict:
    """The claim rule on one metric's paired runs."""
    sign = 1.0 if lower_is_better else -1.0
    won = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    tied = sum(b == h for b, h in zip(base, head))
    bq, hq = quartiles(base), quartiles(head)
    gap = sign * (bq[1] - hq[1])  # > 0: head's median is better
    iqr = bq[2] - bq[0]
    return {
        "base": bq, "head": hq, "won": won, "tied": tied, "gap": gap, "iqr": iqr,
        "claim": won >= math.ceil(WIN_SHARE * len(base)) and gap > iqr,
    }


def end_to_end(checkout: str) -> List[Dict]:
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        return json.load(fh)["end_to_end"]


def _quartiles_text(q: Tuple[float, float, float]) -> str:
    return "/".join(f"{v:.4g}" for v in q)


def report(metrics: List[Dict], runs: Dict[str, List[Dict[str, float]]]) -> None:
    n = len(runs["base"])
    print(f"{'metric':<24} {'base p25/p50/p75':>32} {'head p25/p50/p75':>32} "
          f"{'won':>6} {'gap':>10} {'base IQR':>10}  claim")
    for m in metrics:
        name = m["name"]
        res = verdict([r[name] for r in runs["base"]], [r[name] for r in runs["head"]],
                      m["better"] == "lower")
        won = f"{res['won']}/{n}" if res["tied"] < n else "tie"
        print(f"{name:<24} {_quartiles_text(res['base']):>32} {_quartiles_text(res['head']):>32} "
              f"{won:>6} {res['gap']:>10.4g} {res['iqr']:>10.4g}  "
              f"{'yes' if res['claim'] else 'no'}")


def main(argv: Sequence[str]) -> int:
    if len(argv) not in (3, 4, 5):
        print(__doc__, file=sys.stderr)
        return 2
    base_dir, head_dir, workload = argv[:3]
    first = int(argv[3]) if len(argv) > 3 else 1
    pairs = int(argv[4]) if len(argv) > 4 else 10
    runs: Dict[str, List[Dict[str, float]]] = {"base": [], "head": []}
    for i in range(pairs):
        seed = first + i
        order = [("base", base_dir), ("head", head_dir)]
        if i % 2:
            order.reverse()
        for side, checkout in order:
            try:
                runs[side].append(measure(checkout, workload, seed))
            except RuntimeError as exc:
                print(f"perf-pairs: {exc}", file=sys.stderr)
                return 1
        print(f"pair {i + 1}/{pairs} (seed {seed}, {order[0][0]} first): "
              f"pass_wall_s.p50 base {runs['base'][-1]['pass_wall_s.p50']:.4g} "
              f"head {runs['head'][-1]['pass_wall_s.p50']:.4g}", file=sys.stderr)
    print(f"{workload}: {pairs} alternating pairs, seeds {first}..{first + pairs - 1}")
    report(end_to_end(head_dir), runs)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
