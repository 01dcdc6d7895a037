"""Every paper figure is a cell: ``repro.tools.bench.FIGURE_GRIDS``
declares each cluster figure's arms, ``benchmarks/`` runs them through
the cell surface, and nothing there builds a testbed by hand — nor
anywhere else outside the tests but ``repro.exec.cell``."""

import ast
import re
from pathlib import Path

import pytest

from repro.exec.cell import build_parser
from repro.exec.grid import expand_grid
from repro.tools.bench import FIGURE_GRIDS, FIGURE_SMOKE, figure_specs

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"
#: the one module outside the tests that builds a Cluster/ClusterRunner
CELL = Path("src", "repro", "exec", "cell.py")


def _bench_sources():
    return [(p.name, p.read_text(encoding="utf-8")) for p in sorted(BENCHMARKS.glob("*.py"))]


def _testbed_calls(path: Path):
    """(line, name) of every ``Cluster(...)``/``ClusterRunner(...)`` call."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("Cluster", "ClusterRunner"):
                yield node.lineno, name


class TestBenchmarksLayering:
    def test_nothing_under_benchmarks_builds_a_testbed(self):
        builds = re.compile(r"\b(Cluster|ClusterRunner|PfsModel|ArchiveTier|CompressionModel)\(")
        offenders = [
            f"{name}: {match.group(1)}"
            for name, text in _bench_sources()
            for match in builds.finditer(text)
        ]
        assert offenders == []

    def test_only_the_cell_builds_a_testbed_outside_the_tests(self):
        sources = [
            path.relative_to(ROOT)
            for top in ("src", "examples", "benchmarks", "perfbench")
            for path in (ROOT / top).rglob("*.py")
            if not any(
                part == "tests" or part.startswith(".")
                for part in path.relative_to(ROOT).parts
            )
        ] + [path.relative_to(ROOT) for path in ROOT.glob("*.py")]
        builders = {
            f"{path}:{line}: {name}"
            for path in sorted(sources)
            for line, name in _testbed_calls(ROOT / path)
            if path != CELL
        }
        assert builders == set()
        assert {name for _, name in _testbed_calls(ROOT / CELL)} == {"Cluster", "ClusterRunner"}

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
