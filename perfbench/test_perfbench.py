"""Self-test of the figure-sweep benchmark.

Runs every workload at its figures' ``smoke()`` configs through both the
timed and the traced path, and checks that every metric BENCHMARK.json
names is emitted with its unit and a valid name::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import run
import workloads

BENCH = run.BENCH
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: Checks on the benchmark's own integrity; the paper-shape checks are
#: not expected to hold on smoke-sized grids.
INTEGRITY = ("cold store", "kernel source unchanged", "digest")


def test_benchmark_json_matches_the_benchmark():
    assert {w["name"] for w in BENCH["workloads"]} <= set(workloads.WORKLOADS)
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    for m in BENCH["end_to_end"]:
        assert 0 < m["bound"] <= 0.25, m
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric(name, trace):
    report = run.run_workload(name, seed=workloads.DEFAULT_SEED, seconds=0,
                              trace=trace, scale="smoke")
    section = BENCH["per_layer" if trace else "end_to_end"]
    result = json.loads(json.dumps(report.result([m["name"]
                                                  for m in section])))
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in section}
    for m in section:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
    integrity = [(c, ok) for c, ok, _ in report.checks
                 if any(word in c for word in INTEGRITY)]
    assert integrity and all(ok for _, ok in integrity), integrity
    if trace:
        assert result["metrics"]["store.hits"]["value"] == 0
        assert result["metrics"]["cache.access_calls"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "randcand",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
