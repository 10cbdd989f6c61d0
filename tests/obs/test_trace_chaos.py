"""Traced chaos runs: faults, retries and dead workers must leave
complete, deterministic traces — and never perturb the experiment's
output.

The acceptance bar for the tracing layer, asserted end to end through
the experiments CLI:

* a traced worker fleet under fault injection prints exactly the bytes
  a fault-free untraced ``--jobs 1`` run prints (observation is pure);
* the coordinator writes the sweep's one trace file, and it passes
  every completeness invariant — each cell's attempts run 1..K with one
  row each, an answered attempt is an ``execute`` row (``error`` for a
  failure), and an attempt whose worker was killed (a ``kill`` fault, a
  cell timeout) is a ``lost`` row;
* the canonical projection is byte-identical across worker counts for
  raise-based fault plans (retries are deterministic; schedules are
  not, and they must not leak into the projection).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments.__main__ import main
from repro.obs.schema import validate_run_dir
from repro.obs.stitch import canonical, completeness, load_trace_rows, stitch
from repro.store import FAULTS_ENV

#: One fig3 cell raises on its first attempt and succeeds on retry.
RETRY_PLAN = json.dumps({"faults": [
    {"cell": "fig3[0.6]", "kind": "raise", "attempts": [1]}]})

#: One fig3 cell raises on both of its attempts.
EXHAUST_PLAN = json.dumps({"faults": [
    {"cell": "fig3[0.6]", "kind": "raise", "attempts": [1, 2]}]})

#: One fig3 cell kills its worker on its first attempt.
KILL_PLAN = json.dumps({"faults": [{"cell": "fig3[0.7]", "kind": "kill"}]})

#: One fig3 cell hangs 5x past the 1 s cell timeout used below.
HANG_PLAN = json.dumps({"faults": [
    {"cell": "fig3[0.7]", "kind": "hang", "seconds": 5.0}]})


def baseline_stdout(tmp_path, capsys):
    assert main(["fig3", "--jobs", "1",
                 "--store", f"local:{tmp_path}/baseline"]) == 0
    return capsys.readouterr().out


def traced_fleet(tmp_path, tag, *extra):
    """Run a traced fig3 worker fleet; returns the telemetry run dir."""
    obs = tmp_path / f"obs-{tag}"
    rc = main(["fig3", "--store", f"local:{tmp_path}/{tag}",
               "--telemetry", str(obs), *extra])
    assert rc == 0
    return obs / "fig3"


def stitched(run_dir):
    tree = stitch(load_trace_rows(run_dir))
    assert completeness(tree) == [], "trace must be complete"
    return tree


def spans_for(tree, label, kind):
    """Rows of one cell, selected by label (keys are cache hashes)."""
    return sorted((s for s in tree["rows"]
                   if s["name"] == label and s["kind"] == kind),
                  key=lambda s: s["attempt"])


class TestRetriedCellTrace:
    def test_retry_leaves_a_complete_two_attempt_ladder(
            self, tmp_path, capsys, monkeypatch):
        baseline = baseline_stdout(tmp_path, capsys)
        monkeypatch.setenv(FAULTS_ENV, RETRY_PLAN)
        run_dir = traced_fleet(tmp_path, "retry", "--jobs", "2",
                               "--retries", "1")
        assert capsys.readouterr().out == baseline
        assert validate_run_dir(run_dir) == []
        tree = stitched(run_dir)

        label = "fig3[0.6]"
        executes = spans_for(tree, label, "execute")
        assert [(e["attempt"], e["status"]) for e in executes] == \
            [(1, "error"), (2, "ok")]
        # The faulted attempt carries the deterministic fault event,
        # then the error and the retry it led to.
        fault_events = [e for e in executes[0]["events"]
                        if e["name"] == "fault"]
        assert fault_events and all(e["det"] for e in fault_events)
        names = [e["name"] for e in executes[0]["events"]]
        assert "error" in names and "retry_scheduled" in names
        assert executes[1]["events"] == []
        assert spans_for(tree, label, "lost") == []

    def test_canonical_projection_is_worker_count_invariant(
            self, tmp_path, capsys, monkeypatch):
        """Same sweep, same fault plan, different schedules: 1-worker
        and 2-worker fleets must agree byte for byte after the wall
        clock and schedule-dependent events are projected away."""
        monkeypatch.setenv(FAULTS_ENV, RETRY_PLAN)
        solo = traced_fleet(tmp_path, "solo", "--jobs", "1",
                            "--retries", "1")
        duo = traced_fleet(tmp_path, "duo", "--jobs", "2",
                           "--retries", "1")
        capsys.readouterr()
        assert (canonical(stitched(solo)) == canonical(stitched(duo)))


class TestExhaustedCellTrace:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_last_nack_says_the_attempts_are_exhausted(
            self, tmp_path, capsys, monkeypatch, jobs):
        """The coordinator decides whether a failed attempt is retried;
        each failed execute row records it, at any worker count."""
        monkeypatch.setenv(FAULTS_ENV, EXHAUST_PLAN)
        obs = tmp_path / "obs"
        assert main(["fig3", "--store", f"local:{tmp_path}/s",
                     "--telemetry", str(obs), "--jobs", jobs,
                     "--retries", "1", "--keep-going"]) == 1
        capsys.readouterr()
        rows = spans_for(stitched(obs / "fig3"), "fig3[0.6]", "execute")
        assert [(r["attempt"], r["status"]) for r in rows] == \
            [(1, "error"), (2, "error")]
        assert [[e["name"] for e in r["events"]
                 if e["name"] not in ("fault", "error")]
                for r in rows] == [["retry_scheduled"],
                                   ["attempts_exhausted"]]


class TestKilledAttemptTrace:
    """A worker that dies mid-attempt answers nothing; the coordinator
    records that attempt as a ``lost`` row."""

    def assert_lost_then_ok(self, tree):
        label = "fig3[0.7]"
        (lost,) = spans_for(tree, label, "lost")
        assert lost["attempt"] == 1
        assert [(e["attempt"], e["status"])
                for e in spans_for(tree, label, "execute")] == [(2, "ok")]

    def test_killed_worker_leaves_a_complete_tree(
            self, tmp_path, capsys, monkeypatch):
        baseline = baseline_stdout(tmp_path, capsys)
        monkeypatch.setenv(FAULTS_ENV, KILL_PLAN)
        run_dir = traced_fleet(tmp_path, "kill", "--jobs", "2",
                               "--retries", "1")
        assert capsys.readouterr().out == baseline
        self.assert_lost_then_ok(stitched(run_dir))

    def test_killed_worker_leaves_one_trace_file_naming_its_pid(
            self, tmp_path, capsys, monkeypatch):
        """The dead worker leaves no file of its own: the coordinator's
        one trace records the lost attempt from its hand-off, with the
        pid of the worker it handed it to."""
        monkeypatch.setenv(FAULTS_ENV, KILL_PLAN)
        run_dir = traced_fleet(tmp_path, "kill1", "--jobs", "2",
                               "--retries", "1")
        capsys.readouterr()
        trace_files = [p for p in tmp_path.rglob("*.jsonl")
                       if p.parent.name != "series"]
        assert trace_files == [run_dir / "traces" / "trace.jsonl"]
        tree = stitched(run_dir)
        (lost,) = spans_for(tree, "fig3[0.7]", "lost")
        (retry,) = spans_for(tree, "fig3[0.7]", "execute")
        assert retry["attempt"] == 2
        assert lost["wall"]["start"] is not None
        assert lost["wall"]["start"] <= retry["wall"]["start"]
        dead = lost["wall"]["worker"]
        assert dead.startswith("pid-")
        pid = int(dead[len("pid-"):])
        assert pid != os.getpid()  # a forked worker, not the coordinator
        # It answered nothing, and it is gone.
        assert dead not in {r["wall"]["worker"] for r in tree["rows"]
                            if r["kind"] == "execute"}
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    def test_timed_out_attempt_leaves_a_complete_tree(
            self, tmp_path, capsys, monkeypatch):
        baseline = baseline_stdout(tmp_path, capsys)
        monkeypatch.setenv(FAULTS_ENV, HANG_PLAN)
        run_dir = traced_fleet(tmp_path, "hang", "--cell-timeout", "1",
                               "--retries", "1")
        assert capsys.readouterr().out == baseline
        tree = stitched(run_dir)
        self.assert_lost_then_ok(tree)
        (lost,) = spans_for(tree, "fig3[0.7]", "lost")
        assert [e["error_type"] for e in lost["events"]] == \
            ["CellTimeoutError"]


class TestTracingOff:
    def test_untraced_runs_write_no_trace_artifacts(self, tmp_path,
                                                    capsys, monkeypatch):
        """Tracing follows telemetry: a run without ``--telemetry``
        writes no trace file anywhere."""
        monkeypatch.chdir(tmp_path)
        rc = main(["fig3", "--store", f"local:{tmp_path}/plain",
                   "--jobs", "2"])
        assert rc == 0
        capsys.readouterr()
        assert list(tmp_path.rglob("*.jsonl")) == []
