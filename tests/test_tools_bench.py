"""The bench block registry (repro.tools.bench) and the layering it
sits on: one table of blocks, one dispatch path, tools on top."""

import ast
import functools
import json
import re
import tempfile
from pathlib import Path

import pytest

import repro
from repro.tools import bench

SRC = Path(repro.__file__).parent


def _sources():
    return [(p.relative_to(SRC), p.read_text(encoding="utf-8")) for p in SRC.rglob("*.py")]


@pytest.fixture
def fake_blocks(monkeypatch):
    """The registry with every ``run`` replaced by a recorder; returns
    the list of ``(name, kwargs)`` calls."""
    calls = []

    def fake(name, real):
        def run(**inputs):
            calls.append((name, inputs))
            return {"name": name}

        return real._replace(run=run, gate=lambda r: r["name"] != "scale",
                             summary=lambda r: r["name"])

    monkeypatch.setattr(
        bench, "BLOCKS", {n: fake(n, b) for n, b in bench.BLOCKS.items()}
    )
    return calls


class TestBlockRegistry:
    def test_every_block_has_a_smoke_gate(self):
        assert list(bench.BLOCKS) == [
            "exec", "dedup", "replay", "scale",
        ]
        for block in bench.BLOCKS.values():
            assert callable(block.run)
            assert callable(block.gate) and callable(block.summary)
            assert isinstance(block.smoke_inputs, dict)

    @pytest.mark.parametrize("argv", [["--smoke", "all"], ["--smoke"]])
    def test_smoke_all_runs_each_block_exactly_once(self, argv, fake_blocks, capsys):
        # the recorder's gate fails one block: every block still runs,
        # each with its own smoke inputs, and the exit code says so
        assert bench.main(argv) == 1
        assert fake_blocks == [
            (name, block.smoke_inputs) for name, block in bench.BLOCKS.items()
        ]
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" smoke: ")[0] for line in lines] == list(bench.BLOCKS)
        assert [line.rsplit(" -> ")[1] for line in lines] == [
            "FAIL" if name == "scale" else "OK" for name in bench.BLOCKS
        ]

    def test_smoke_one_name_runs_that_block_only(self, fake_blocks):
        assert bench.main(["--smoke", "replay"]) == 0
        assert [name for name, _ in fake_blocks] == ["replay"]

    def test_unknown_name_exits_2(self, fake_blocks):
        for flag in ("--smoke", "--block"):
            with pytest.raises(SystemExit) as exc:
                bench.main([flag, "no-such-block"])
            assert exc.value.code == 2
        assert fake_blocks == []

    def test_block_prints_one_full_record(self, capsys):
        assert bench.main(["--block", "scale"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert bench.BLOCKS["scale"].gate(record)

    def test_run_benchmark_removes_its_cache_dir(self, monkeypatch, tmp_path):
        """Every ``make bench-json`` used to leave a ``repro-bench-*``
        cache directory behind."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(
            bench, "run_exec_block",
            functools.partial(
                bench.run_exec_block, **bench.BLOCKS["exec"].smoke_inputs, figures=()
            ),
        )
        monkeypatch.setattr(bench, "BLOCKS", {})
        record = bench.run_benchmark(1)
        assert record["cached_rerun"]["cache_hits"] == record["grid"]["cells"] == 1
        assert list(tmp_path.glob("repro-bench-*")) == []


class TestLayering:
    def test_nothing_below_tools_imports_tools(self):
        imports_tools = re.compile(
            r"^\s*(?:from\s+(?:repro|\.+)\.?tools\b|import\s+repro\.tools\b"
            r"|from\s+(?:repro|\.+)\s+import\s+.*\btools\b)",
            re.M,
        )
        offenders = [
            str(rel) for rel, text in _sources()
            if rel.parts[0] != "tools" and imports_tools.search(text)
        ]
        assert offenders == []

    def test_run_grid_is_the_only_dispatch_path(self):
        callers = [str(rel) for rel, text in _sources() if ".run_batches(" in text]
        assert callers == [str(Path("exec") / "grid.py")]
        assert not (SRC / "exec" / "executor.py").exists()
        assert not hasattr(repro, "ParallelExecutor")

    def test_one_builder_for_ranks_and_helpers_under_cluster(self):
        for needle in ("RemoteHelper(", ".add_rank("):
            sites = [
                str(rel) for rel, text in _sources()
                if rel.parts[0] == "cluster" and needle in text
            ]
            assert sites == [str(Path("cluster") / "cluster.py")], needle

    @pytest.mark.parametrize(
        "needle,holders",
        [
            (".start_background(", {"start_nodes"}),
            (".stop_background(", {"stop_nodes"}),
            # no checkpoint-latency observer is attached anywhere
            (".observe(stats.duration)", set()),
            ("_attach_slo_observer(", set()),
        ],
    )
    def test_one_start_stop_pair_for_a_nodes_machinery(self, needle, holders):
        """Under ``cluster/`` a node's run-time machinery is started and
        stopped only by ``ClusterRunner.start_nodes``/``stop_nodes`` —
        at run start and end, and for a hard failure's replacement."""
        found = set()
        for rel, text in _sources():
            if rel.parts[0] != "cluster":
                continue
            defs = [
                node for node in ast.walk(ast.parse(text))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            for lineno, line in enumerate(text.splitlines(), 1):
                if needle in line:
                    inner = [d for d in defs if d.lineno <= lineno <= d.end_lineno]
                    found.add(max(inner, key=lambda d: d.lineno).name if inner else str(rel))
        assert found == holders

    @pytest.mark.parametrize(
        "needle,owner",
        [
            ("_replicated", "core/remote.py"),
            ("_dirty_epoch", "core/remote.py"),
            ("._buddy", "resilience/directory.py"),
        ],
    )
    def test_pairing_state_stays_inside_its_module(self, needle, owner):
        holders = [str(rel) for rel, text in _sources() if needle in text]
        assert holders == [str(Path(owner))]

    @pytest.mark.parametrize(
        "needle", ["RemoteBuddyDestination", "write_at(", "write_payload(", "send_fn"]
    )
    def test_one_destination_data_plane_method(self, needle):
        assert [str(rel) for rel, text in _sources() if needle in text] == []

    def test_phase_timeline_is_observed_from_the_bus_not_threaded(self):
        """A Timeline is a trace sink: nothing below the CLI builds one
        or passes one down."""
        allowed = {str(Path("metrics") / "timeline.py"), str(Path("tools") / "experiment.py")}
        # `x.timeline` the attribute, not `metrics.timeline` the module
        for needle in (r"timeline=", r"(?<!metrics)(?<=[\w)\]])\.timeline\b"):
            holders = {str(rel) for rel, text in _sources() if re.search(needle, text)}
            assert holders <= allowed, needle
        builders = {str(rel) for rel, text in _sources() if "Timeline(" in text}
        assert builders == allowed  # the class statement and the one caller

    def test_json_text_round_trip_is_not_a_copy_idiom(self):
        """The persistent store copies metadata by type; the text round
        trip survives once, as that copy's exceptional path."""
        sites = [
            str(rel) for rel, text in _sources()
            for _ in re.findall(r"json\.loads\(\s*json\.dumps\(", text)
        ]
        assert sites == [str(Path("memory") / "persistence.py")]

    def test_trace_records_are_not_built_with_asdict(self):
        """Events are flat scalar records off one field table; the
        deep-copying ``dataclasses.asdict`` stays off the emit path."""
        users = [
            str(rel) for rel, text in _sources()
            if rel.parts[0] in ("metrics", "exec") and re.search(r"\basdict\b", text)
        ]
        assert users == []

    @pytest.mark.parametrize(
        "needle",
        [
            "resilient_put(", "resilient_get(", "core.local",
            "_known_targets", "MigrationTask", "MembershipEvent",
        ],
    )
    def test_deleted_second_ways_stay_deleted(self, needle):
        assert [str(rel) for rel, text in _sources() if needle in text] == []
