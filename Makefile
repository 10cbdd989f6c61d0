# Convenience targets for the futility-scaling reproduction.

.PHONY: install test bench bench-smoke bench-paper bench-throughput \
	bench-regression figures figures-parallel report examples lint \
	typecheck check clean clean-cache telemetry-smoke chaos-smoke \
	scenario-smoke trace-smoke

# PYTHONPATH=src keeps every target usable from a bare checkout
# (no editable install required), matching the tier-1 test invocation.
PY := PYTHONPATH=src python

install:
	pip install -e . || python setup.py develop

# tests/runner/ exercises the work-queue engine (a --jobs 2 smoke-scale
# run of forked workers byte-compared against --jobs 1) on every
# invocation.
test:
	pytest tests/

bench: bench-throughput
	pytest benchmarks/ --benchmark-only

# Re-measure per-scheme access throughput into BENCH_throughput.json
# (merges under the "after" label; run with BENCH_LABEL=before on a
# pre-change tree to refresh the baseline side).
bench-throughput:
	$(PY) benchmarks/test_simulator_throughput.py \
		--out BENCH_throughput.json --label $${BENCH_LABEL:-after}

# CI smoke: fail when access throughput regresses >30% below the
# committed BENCH_throughput.json (spin-calibrated across machines).
bench-regression:
	$(PY) -m pytest -q -p no:cacheprovider \
		benchmarks/test_simulator_throughput.py::test_benchmark_covers_every_scheme \
		benchmarks/test_simulator_throughput.py::test_throughput_regression

bench-smoke:
	REPRO_BENCH_SCALE=smoke pytest benchmarks/ --benchmark-only

bench-paper:
	REPRO_BENCH_SCALE=paper pytest benchmarks/ --benchmark-only

# The CI telemetry job: record fig3 and fig6 smoke runs, validate every
# JSONL artifact against repro.obs.schema, check that each run's trace
# stitches into one complete span tree, and render both dashboards to
# the report.txt files CI uploads.
telemetry-smoke:
	rm -rf telemetry-run
	$(PY) -m repro.experiments fig3 --scale smoke --jobs 2 \
		--store local:telemetry-run/cache --telemetry=telemetry-run/obs
	$(PY) -m repro.experiments fig6 --scale smoke --jobs 2 \
		--store local:telemetry-run/cache --telemetry=telemetry-run/obs
	$(PY) -m repro.obs validate telemetry-run/obs/fig3
	$(PY) -m repro.obs validate telemetry-run/obs/fig6
	$(PY) -m repro.obs trace --check telemetry-run/obs/fig3
	$(PY) -m repro.obs trace --check telemetry-run/obs/fig6
	$(PY) -m repro.obs report telemetry-run/obs/fig3 \
		--out telemetry-run/obs/fig3/report.txt
	$(PY) -m repro.obs report telemetry-run/obs/fig6 \
		--out telemetry-run/obs/fig6/report.txt
	cat telemetry-run/obs/fig3/report.txt telemetry-run/obs/fig6/report.txt

# Local mirror of the CI scenario job: the lifecycle scenario suite
# (tenant churn + phase change) under telemetry, byte-compared across
# --jobs, with every artifact — including the new lifecycle/*.jsonl
# control-plane logs — validated against repro.obs.schema.
scenario-smoke:
	rm -rf scenario-run && mkdir -p scenario-run
	$(PY) -m repro.experiments scenarios --scale smoke --jobs 1 \
		--no-cache > scenario-run/baseline.out
	$(PY) -m repro.experiments scenarios --scale smoke --jobs 2 \
		--store local:scenario-run/cache \
		--telemetry=scenario-run/obs > scenario-run/telemetry.out
	cmp scenario-run/baseline.out scenario-run/telemetry.out
	$(PY) -m repro.obs validate scenario-run/obs/scenarios
	test -n "$$(ls scenario-run/obs/scenarios/lifecycle/*.jsonl)"

# Asserts that every row of a store's work queue is done on its first
# attempt: no retries, no dead workers, nothing failed or unfinished.
QUEUE_CLEAN := $(PY) -c 'import sqlite3, sys; \
rows = sqlite3.connect(sys.argv[1]).execute( \
"SELECT status, attempts, deaths FROM work_queue").fetchall(); \
assert rows and all(r == ("done", 0, 0) for r in rows), rows; \
print(f"ok: {len(rows)} queue rows done, no retries, no deaths")'

# Local mirror of the CI store-chaos job: a fig3 run by 2 forked workers
# under one fault plan — injected store faults (lock contention, claim
# latency) plus a cell that hangs for 2 s — must print exactly the bytes
# a fault-free --jobs 1 run prints, and leave every queue row done on
# its first attempt.  Then a worker killed mid-cell must cost nothing
# but a rerun of that cell.
chaos-smoke:
	rm -rf chaos-run && mkdir -p chaos-run
	$(PY) -m repro.experiments fig3 --jobs 1 \
		--store local:chaos-run/baseline > chaos-run/baseline.out
	REPRO_FAULTS='{"faults": [{"cell": "fig3[0.6]", "kind": "hang", "seconds": 2.0}, {"op": "*", "kind": "busy", "every": 3}, {"op": "claim", "kind": "latency", "seconds": 0.01}]}' \
	$(PY) -m repro.experiments fig3 --store sqlite:chaos-run/results.db \
		--jobs 2 > chaos-run/chaos.out
	cmp chaos-run/baseline.out chaos-run/chaos.out
	$(QUEUE_CLEAN) chaos-run/results.db
	REPRO_FAULTS='{"faults": [{"cell": "fig3[0.7]", "kind": "kill"}]}' \
	$(PY) -m repro.experiments fig3 --store sqlite:chaos-run/kill.db \
		--jobs 2 --retries 1 > chaos-run/kill.out
	cmp chaos-run/baseline.out chaos-run/kill.out

# Local mirror of the CI tracing job: a fig3 sweep drained by 2 queue
# workers with --telemetry (which always traces) must print exactly the
# bytes a sequential untraced run prints, leave schema-valid trace
# artifacts that stitch into one complete span tree, project to a
# canonical form that is byte-identical whatever the worker count, and
# leave every queue row done on its first attempt (nothing failed or
# unfinished).  A traced sweep whose worker is killed mid-cell must also
# print the baseline bytes and stitch into a complete tree.
trace-smoke:
	rm -rf trace-run && mkdir -p trace-run
	$(PY) -m repro.experiments fig3 --scale smoke --jobs 1 \
		--store local:trace-run/baseline > trace-run/baseline.out
	$(PY) -m repro.experiments fig3 --scale smoke \
		--store sqlite:trace-run/results.db --jobs 2 \
		--telemetry=trace-run/obs > trace-run/fleet.out
	cmp trace-run/baseline.out trace-run/fleet.out
	$(PY) -m repro.obs validate trace-run/obs/fig3
	$(PY) -m repro.obs trace --check trace-run/obs/fig3
	$(PY) -m repro.obs trace trace-run/obs/fig3 > trace-run/tree.txt
	$(PY) -m repro.obs trace --canonical trace-run/obs/fig3 \
		> trace-run/canon-2w.txt
	$(PY) -m repro.experiments fig3 --scale smoke \
		--store sqlite:trace-run/solo.db --jobs 1 \
		--telemetry=trace-run/obs-solo > trace-run/solo.out
	cmp trace-run/baseline.out trace-run/solo.out
	$(PY) -m repro.obs trace --canonical trace-run/obs-solo/fig3 \
		> trace-run/canon-1w.txt
	cmp trace-run/canon-2w.txt trace-run/canon-1w.txt
	$(QUEUE_CLEAN) trace-run/results.db
	$(PY) -m repro.obs report --json trace-run/obs/fig3 \
		> trace-run/report.json
	REPRO_FAULTS='{"faults": [{"cell": "fig3[0.9]", "kind": "kill"}]}' \
	$(PY) -m repro.experiments fig3 --scale smoke \
		--store sqlite:trace-run/kill.db --jobs 2 --retries 1 \
		--telemetry=trace-run/obs-kill > trace-run/kill.out
	cmp trace-run/baseline.out trace-run/kill.out
	$(PY) -m repro.obs trace --check trace-run/obs-kill/fig3

figures:
	python -m repro.experiments all

figures-parallel:
	python -m repro.experiments all --scale smoke --jobs 4

report:
	python -m repro.analysis.report benchmarks/results REPORT.md

# Static analysis (hard CI gates; see CONTRIBUTING.md).
# reprolint always runs (in-tree, zero deps).  ruff and mypy run when
# installed (`pip install -e .[dev]`) and are skipped — loudly — when
# not, so offline checkouts aren't blocked; CI always installs both.
lint:
	$(PY) -m repro.devtools.lint src
	@if python -c "import ruff" >/dev/null 2>&1; then \
		python -m ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed (pip install -e .[dev]); skipping"; \
	fi

typecheck:
	@if python -c "import mypy" >/dev/null 2>&1; then \
		PYTHONPATH=src python -m mypy -m repro.api -p repro.runner \
			-m repro.experiments.registry -p repro.devtools.lint; \
	else \
		echo "mypy not installed (pip install -e .[dev]); skipping"; \
	fi

check: test lint typecheck

examples:
	for f in examples/*.py; do echo "== $$f"; \
		PYTHONPATH=src:$$PYTHONPATH python "$$f" || exit 1; done

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +

clean-cache:
	rm -rf "$${REPRO_CACHE_DIR:-$$HOME/.cache/repro-experiments}"
