# Convenience targets for the futility-scaling reproduction.

.PHONY: install test bench bench-smoke bench-paper bench-throughput \
	bench-regression bench-figures perfbench-smoke perfbench-pins figures \
	figures-parallel report examples lint typecheck check clean \
	clean-cache telemetry-smoke chaos-smoke trace-smoke

# PYTHONPATH=src keeps every target usable from a bare checkout
# (no editable install required), matching the tier-1 test invocation.
PY := PYTHONPATH=src python

install:
	pip install -e . || python setup.py develop

# tests/runner/ exercises the dispatch engine (a --jobs 2 smoke-scale
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

# Wall time of fig2, fig4, fig5 and fig6 at --scale scaled --jobs 1
# --no-cache, each in a fresh interpreter, with the host's spin time
# around each run, merged into BENCH_figures.json under BENCH_LABEL
# (default after).  BENCH_SRC points at another tree's src/ to measure
# it instead (the parent side, with BENCH_LABEL=before).  About 3.5 min.
bench-figures:
	python benchmarks/figure_walltime.py --label $${BENCH_LABEL:-after} \
		--src $${BENCH_SRC:-src}

# Self-test of the figure-sweep benchmark (perfbench/): every workload
# at its figures' smoke configs, timed and traced, emits every metric
# BENCHMARK.json names.  pytest's testpaths is tests/, so tier-1 never
# collects it.
perfbench-smoke:
	python3 -m pytest -q perfbench/test_perfbench.py

# Bench-scale byte identity: a traced run of each workload must pass
# every check and match every digest and count perfbench/reference.json
# pins (perfbench itself only reports a pin mismatch).  The workloads
# are that file's "pins" keys, so a newly pinned one is gated too.  A
# deliberate re-golden updates those pins in the same change.  About a
# minute.
PINNED := python3 -c 'import json; \
print(" ".join(json.load(open("perfbench/reference.json"))["pins"]))'

PINS_OK := python3 -c 'import json, sys; \
out = json.loads(sys.stdin.read().splitlines()[-1]); \
bad = out["metrics"]["bench.pin_mismatches"]["value"]; \
print("%s: correct %s, %d pin mismatches" % (sys.argv[1], out["correct"], bad)); \
sys.exit(0 if out["correct"] and bad == 0 else 1)'

perfbench-pins:
	mkdir -p .perfbench-work
	workloads=$$($(PINNED)) && test -n "$$workloads" && \
	for w in $$workloads; do \
		python3 perfbench/run.py --workload $$w --trace 1 \
			| tee .perfbench-work/pins-$$w.out; \
		$(PINS_OK) $$w < .perfbench-work/pins-$$w.out || exit 1; \
	done

bench-smoke:
	REPRO_BENCH_SCALE=smoke pytest benchmarks/ --benchmark-only

bench-paper:
	REPRO_BENCH_SCALE=paper pytest benchmarks/ --benchmark-only

# First half of the CI telemetry job: record fig3 and fig6 smoke runs,
# validate every JSONL artifact against repro.obs.schema, check that
# each run's trace (one file, traces/trace.jsonl, written by the
# coordinator) is complete, and render both dashboards to the
# report.txt files CI uploads.
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

# Asserts that a telemetry run's manifest records every cell computed
# on its first attempt: nothing cached, failed or unfinished, no
# retries, no dead workers.
MANIFEST_CLEAN := $(PY) -c 'import json, sys; \
cells = json.load(open(sys.argv[1]))["cells"]; \
assert cells["total"] and cells["completed"] == cells["total"], cells; \
assert cells["retries"] == cells["losses"] == cells["failed"] == 0, cells; \
print("ok: %d cells done, no retries, no losses" % cells["total"])'

# Local mirror of the CI store job's chaos step: a fig3 run by 2 forked
# workers with a cell that hangs for 2 s must print exactly the bytes a
# fault-free --jobs 1 run prints, and its manifest must record every
# cell done on its first attempt.  Then a worker killed mid-cell must
# cost nothing but a rerun of that cell.
chaos-smoke:
	rm -rf chaos-run && mkdir -p chaos-run
	$(PY) -m repro.experiments fig3 --jobs 1 \
		--store local:chaos-run/baseline > chaos-run/baseline.out
	REPRO_FAULTS='{"faults": [{"cell": "fig3[0.6]", "kind": "hang", "seconds": 2.0}]}' \
	$(PY) -m repro.experiments fig3 --store local:chaos-run/results \
		--jobs 2 --telemetry=chaos-run/obs > chaos-run/chaos.out
	cmp chaos-run/baseline.out chaos-run/chaos.out
	$(MANIFEST_CLEAN) chaos-run/obs/fig3/manifest.json
	REPRO_FAULTS='{"faults": [{"cell": "fig3[0.7]", "kind": "kill"}]}' \
	$(PY) -m repro.experiments fig3 --store local:chaos-run/kill \
		--jobs 2 --retries 1 > chaos-run/kill.out
	cmp chaos-run/baseline.out chaos-run/kill.out

# Second half of the CI telemetry job: a fig3 sweep run by 2 forked
# workers with --telemetry (which always traces) must print exactly the
# bytes a sequential untraced run prints, leave a schema-valid trace
# that passes `obs trace --check`, project to a canonical form that is
# byte-identical whatever the worker count, and record every cell done
# on its first attempt in its manifest (nothing failed or unfinished).
# A traced sweep whose worker is killed mid-cell must also print the
# baseline bytes, and its trace (the dead attempt a `lost` row) must
# pass --check.
trace-smoke:
	rm -rf trace-run && mkdir -p trace-run
	$(PY) -m repro.experiments fig3 --scale smoke --jobs 1 \
		--store local:trace-run/baseline > trace-run/baseline.out
	$(PY) -m repro.experiments fig3 --scale smoke \
		--store local:trace-run/results --jobs 2 \
		--telemetry=trace-run/obs > trace-run/fleet.out
	cmp trace-run/baseline.out trace-run/fleet.out
	$(PY) -m repro.obs validate trace-run/obs/fig3
	$(PY) -m repro.obs trace --check trace-run/obs/fig3
	$(PY) -m repro.obs trace trace-run/obs/fig3 > trace-run/tree.txt
	$(PY) -m repro.obs trace --canonical trace-run/obs/fig3 \
		> trace-run/canon-2w.txt
	$(PY) -m repro.experiments fig3 --scale smoke \
		--store local:trace-run/solo --jobs 1 \
		--telemetry=trace-run/obs-solo > trace-run/solo.out
	cmp trace-run/baseline.out trace-run/solo.out
	$(PY) -m repro.obs trace --canonical trace-run/obs-solo/fig3 \
		> trace-run/canon-1w.txt
	cmp trace-run/canon-2w.txt trace-run/canon-1w.txt
	$(MANIFEST_CLEAN) trace-run/obs/fig3/manifest.json
	$(PY) -m repro.obs report --json trace-run/obs/fig3 \
		> trace-run/report.json
	REPRO_FAULTS='{"faults": [{"cell": "fig3[0.9]", "kind": "kill"}]}' \
	$(PY) -m repro.experiments fig3 --scale smoke \
		--store local:trace-run/kill --jobs 2 --retries 1 \
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
