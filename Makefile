PYTHON ?= python
PYTHONPATH := src

.PHONY: test lint loc reach record-audit faults faults-matrix bench bench-json smoke examples perf-smoke perf-compare perf-pairs paper-scale chunk-cost

# tier-1: the full deterministic suite
test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

# lint: ruff when installed (CI installs it, dev containers may not)
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; lint skipped"; \
	fi

# the size numbers a change reports: lines of Python under src/, the
# number of settable fields on repro.config's dataclasses, and the import
# footprint of one phantom cell (repro modules imported; numpy must not be)
loc:
	@echo "src lines: $$(find src -name '*.py' | xargs cat | wc -l)"
	@PYTHONPATH=$(PYTHONPATH) $(PYTHON) -c "import dataclasses as d, repro.config as c; \
	print('config fields:', sum(len(d.fields(o)) for o in vars(c).values() \
	if isinstance(o, type) and d.is_dataclass(o) and o.__module__ == c.__name__))"
	@PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/import_footprint.py

# reach audit: run every non-test entry point (bench, smokes, examples,
# fault matrix, scenario cells, a sweep, the figure benchmarks) under a
# profile hook and print the functions under src/repro that none of
# them runs: count, lines, per-module table, list; ungated, ~5 min
reach:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/reach.py

# record audit: run every entry-point cell (pinned grid, --scenario
# cells under lammps and synthetic, the perfbench workloads' cells) and
# print each record leaf's min, max and the cells where it is non-zero;
# ungated, ~15 s
record-audit:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/record_audit.py

# the crash-point fault-injection suite only
faults:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -m faults -q

# standalone matrix report: crash at every registered point with a
# fixed seed and print the per-point outcome table
faults-matrix:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.tools.faultmatrix --random 10

bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks -q

# host cost of one paper-scale cell (8 nodes x 12 ranks, faithful GTC
# chunk layout, 2 iterations, through run_cell): wall time, peak RSS and
# the collector's passes inside the cell; ungated, ~3 s
paper-scale:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/paper_scale.py

# host cost of one chunk on the checkpoint path (a standalone 31-chunk
# phantom rank): median us of one nvalloc, one buddy first contact, one
# coordinated checkpoint and one commit's metadata; ungated, ~5 s.
# `make chunk-cost BASE=<git-ref>` exports BASE with `git archive` to a
# temp dir and alternates 10 pairs of the same script on BASE's src/ and
# on this tree's, each compiled from source, then prints per operation
# the quartiles of the run medians, the pairs this tree won and the claim
# rule of perf-pairs (benchmarks/chunk_cost_pairs.py; ~2 min)
ifeq ($(BASE),)
chunk-cost:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/chunk_cost.py
else
chunk-cost:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	git archive "$(BASE)" | tar -x -C "$$tmp"; \
	$(PYTHON) benchmarks/chunk_cost_pairs.py "$$tmp" "$$(pwd)"
endif

# perf trajectory: run the pinned benchmark subset on the parallel
# cached execution engine and emit the machine-readable baseline
bench-json:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.tools.bench --out BENCH_baseline.json

# CI-sized proof of every bench block: each block of the registry in
# repro.tools.bench run at its smoke inputs, its gate checked, one line
# printed per block; exit 1 if any gate fails.  `make smoke-<block>`
# runs one (the bench's --help lists the block names).
smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.tools.bench --smoke all

smoke-%:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.tools.bench --smoke $*

# every examples/*.py end to end, in name order; stops at the first
# script that exits nonzero (~10 s for all)
examples:
	@set -e; for f in examples/*.py; do \
		echo "== $$f"; PYTHONPATH=$(PYTHONPATH) $(PYTHON) $$f; \
	done

# the performance benchmark's own proof (perfbench/, BENCHMARK.json):
# every workload once at smoke size — simulated results must read
# "fidelity: same" against the recorded reference — then its unit tests.
# One test is deselected: it demands that every traced target listed in
# perfbench/layers.py still resolve, and that list cannot be edited next
# to a src/ change, so it still names 124 callables that have since been
# deleted (payload trios, write_at/write_payload, collector methods,
# ParallelExecutor.*, TimelineSink.handle, Timeline.begin/end,
# resilient_put/get, Fabric.outage_active, Scrubber.*, PageTable.*,
# the codecs' encode_bytes/decode_bytes, BlockStore.put_bytes/get_bytes,
# RamdiskDestination.*, RemoteTarget.verify, Resource.*,
# CpuCores.busy/total_busy_time, FileStore.*, Chunk.read/stale_bytes/
# commit, Arena.internal_fragmentation, EntropyProbe.forget,
# Cluster.total_remote_bytes/total_bytes_to_nvm, ClusterNode.
# total_bytes_to_nvm/total_coordinated_bytes/total_precopy_bytes,
# ResultCache.stats, compare_accounting, live_commit_ordering,
# validate_extents (now private), OnlinePolicyTuner.attach/detach/
# interval_cost/observe/choose, ThresholdEstimator.nudge_margin,
# PrecopyEngine.adopt_policy, CheckpointEngine.set_policy,
# TraceBus.subscribe/unsubscribe, ...).  The
# benchmark itself reports them under missing_targets and runs on; a
# perfbench/-only change that regenerates the list drops this deselect
# (ROADMAP item 1).
perf-smoke:
	$(PYTHON) -m perfbench run --smoke
	$(PYTHON) -m pytest perfbench/tests -q \
		--deselect perfbench/tests/test_spans.py::test_every_layer_target_resolves_at_this_commit_and_is_restored

# end-to-end performance of the working tree against a git ref:
# `make perf-compare BASE=<git-ref>` exports BASE with `git archive`
# to a temp dir, runs the untraced benchmark there and here (each
# builds what it runs from its own checkout), and exits 1 if any
# workload's end-to-end metric reads `worse` (~3 min per side)
perf-compare:
	@test -n "$(BASE)" || { echo "usage: make perf-compare BASE=<git-ref>"; exit 2; }
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/base"; git archive "$(BASE)" | tar -x -C "$$tmp/base"; \
	(cd "$$tmp/base" && $(PYTHON) -m perfbench run --no-trace --out "$$tmp/base.json"); \
	$(PYTHON) -m perfbench run --no-trace --out "$$tmp/head.json"; \
	$(PYTHON) -m perfbench compare "$$tmp/base.json" "$$tmp/head.json"

# the claim rule for a performance gain as one command:
# `make perf-pairs BASE=<git-ref> WORKLOAD=<name> [SEED=<first seed>]`
# exports BASE with `git archive` to a temp dir, runs 10 alternating-order
# pairs of `perfbench measure --seconds 10` there and here on seeds SEED,
# SEED+1, ..., and prints each side's quartiles per end-to-end metric,
# the pairs won, and whether the median gap beats the base's IQR
# (benchmarks/perf_pairs.py; ~5 min).  Every run has PYTHONDONTWRITEBYTECODE=1
# and a fresh, empty PYTHONPYCACHEPREFIX, so both sides compile their imports
# from source, as a fresh checkout does: setup_s then compares like with like
# (a tree with valid or stale bytecode reads tens of percent off otherwise)
SEED ?= 1
perf-pairs:
	@test -n "$(BASE)" && test -n "$(WORKLOAD)" || { echo "usage: make perf-pairs BASE=<git-ref> WORKLOAD=<name> [SEED=<n>]"; exit 2; }
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	git archive "$(BASE)" | tar -x -C "$$tmp"; \
	$(PYTHON) benchmarks/perf_pairs.py "$$tmp" "$$(pwd)" "$(WORKLOAD)" "$(SEED)"
