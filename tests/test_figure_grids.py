"""Every paper figure is a cell: ``repro.tools.bench.FIGURE_GRIDS``
declares each cluster figure's arms, ``benchmarks/`` runs them through
the cell surface, and nothing there builds a testbed by hand."""

import ast
import re
from pathlib import Path

import pytest

from repro.exec.cell import build_parser
from repro.exec.grid import expand_grid
from repro.tools.bench import FIGURE_GRIDS, FIGURE_SMOKE, figure_specs

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _bench_sources():
    return [(p.name, p.read_text(encoding="utf-8")) for p in sorted(BENCHMARKS.glob("*.py"))]


class TestBenchmarksLayering:
    def test_nothing_under_benchmarks_builds_a_testbed(self):
        builds = re.compile(r"\b(Cluster|ClusterRunner|PfsModel|ArchiveTier|CompressionModel)\(")
        offenders = [
            f"{name}: {match.group(1)}"
            for name, text in _bench_sources()
            for match in builds.finditer(text)
        ]
        assert offenders == []

    def test_conftest_defines_no_hand_built_runs(self):
        tree = ast.parse((BENCHMARKS / "conftest.py").read_text(encoding="utf-8"))
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert defined.isdisjoint({"run_cluster", "run_ideal"})


@pytest.mark.parametrize("name", sorted(FIGURE_GRIDS))
def test_every_arm_expands_and_its_bench_runs_it(name):
    bench = BENCHMARKS / f"bench_{name}.py"
    assert bench.exists()
    assert f'"{name}"' in bench.read_text(encoding="utf-8")
    full = {arm: expand_grid(spec) for arm, spec in figure_specs(name).items()}
    smoke = {arm: expand_grid(spec) for arm, spec in figure_specs(name, smoke=True).items()}
    assert list(full) == list(smoke) == list(FIGURE_GRIDS[name])
    for arm, cells in smoke.items():
        assert len(cells) == len(full[arm]) >= 1
        for cell in cells:
            size = (cell.config["nodes"], cell.config["ranks_per_node"], cell.config["iterations"])
            assert size == tuple(int(v) for v in FIGURE_SMOKE[1::2])
    # each cell keeps its arm's --seed: arms pair cell for cell
    for arm, cells in full.items():
        base_seed = build_parser().parse_args(FIGURE_GRIDS[name][arm][0]).seed
        assert {cell.config["seed"] for cell in cells} == {base_seed}
