"""Traced chaos runs: faults, retries and dead workers must leave
complete, deterministic traces — and never perturb the experiment's
output.

The acceptance bar for the tracing layer, asserted end to end through
the experiments CLI:

* a traced worker fleet under fault injection prints exactly the bytes
  a fault-free untraced ``--jobs 1`` run prints (observation is pure);
* the stitched span tree passes every completeness invariant — the
  claim ladder is 1..K, each claim has its execute, each retried
  attempt has its nack, and exactly one terminal closes the cell; an
  attempt whose worker was killed (a ``kill`` fault, a cell timeout)
  ends in the coordinator's ``lost`` terminal instead;
* the canonical projection is byte-identical across worker counts for
  raise-based fault plans (retries are deterministic; schedules are
  not, and they must not leak into the projection).
"""

from __future__ import annotations

import json

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

#: Every other store call hits lock contention first.
BUSY_PLAN = json.dumps({"faults": [{"op": "*", "kind": "busy", "every": 2}]})


def baseline_stdout(tmp_path, capsys):
    assert main(["fig3", "--jobs", "1",
                 "--store", f"local:{tmp_path}/baseline"]) == 0
    return capsys.readouterr().out


def traced_fleet(tmp_path, tag, *extra):
    """Run a traced fig3 worker fleet; returns the telemetry run dir."""
    obs = tmp_path / f"obs-{tag}"
    rc = main(["fig3", "--store", f"sqlite:{tmp_path}/{tag}.db",
               "--telemetry", str(obs), *extra])
    assert rc == 0
    return obs / "fig3"


def stitched(run_dir):
    tree = stitch(load_trace_rows([run_dir]))
    assert completeness(tree) == [], "trace must be causally complete"
    return tree


def spans_for(tree, label, kind):
    """Spans of one cell, selected by label (keys are cache hashes)."""
    return sorted((s for s in tree["spans"].values()
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
        claims = spans_for(tree, label, "claim")
        assert [c["attempt"] for c in claims] == [1, 2]
        executes = spans_for(tree, label, "execute")
        assert [e["attempt"] for e in executes] == [1, 2]
        # The faulted attempt carries the deterministic fault event.
        fault_events = [e for e in executes[0]["events"]
                        if e["name"] == "fault"]
        assert fault_events and all(e["det"] for e in fault_events)
        # Attempt 1 ends in a nack explaining the error and the retry.
        (nack,) = spans_for(tree, label, "nack")
        assert nack["attempt"] == 1
        names = [e["name"] for e in nack["events"]]
        assert "error" in names and "retry_scheduled" in names
        # Attempt 2 ends in the cell's single ack.
        (ack,) = spans_for(tree, label, "ack")
        assert ack["attempt"] == 2

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
        """The coordinator tells each attempt whether its failure will
        be retried; the nack spans record it at any worker count."""
        monkeypatch.setenv(FAULTS_ENV, EXHAUST_PLAN)
        obs = tmp_path / "obs"
        assert main(["fig3", "--store", f"sqlite:{tmp_path}/s.db",
                     "--telemetry", str(obs), "--jobs", jobs,
                     "--retries", "1", "--keep-going"]) == 1
        capsys.readouterr()
        nacks = spans_for(stitched(obs / "fig3"), "fig3[0.6]", "nack")
        assert [n["attempt"] for n in nacks] == [1, 2]
        assert [[e["name"] for e in n["events"] if e["name"] != "error"]
                for n in nacks] == [["retry_scheduled"],
                                    ["attempts_exhausted"]]


class TestKilledAttemptTrace:
    """A worker that dies mid-attempt writes no execute or nack span;
    the coordinator closes that attempt with a ``lost`` terminal."""

    def assert_lost_then_acked(self, tree):
        label = "fig3[0.7]"
        claims = spans_for(tree, label, "claim")
        assert [c["attempt"] for c in claims] == [1, 2]
        (lost,) = spans_for(tree, label, "lost")
        assert lost["attempt"] == 1
        assert [e["attempt"] for e in spans_for(tree, label, "execute")] \
            == [2]
        (ack,) = spans_for(tree, label, "ack")
        assert ack["attempt"] == 2

    def test_killed_worker_leaves_a_complete_tree(
            self, tmp_path, capsys, monkeypatch):
        baseline = baseline_stdout(tmp_path, capsys)
        monkeypatch.setenv(FAULTS_ENV, KILL_PLAN)
        run_dir = traced_fleet(tmp_path, "kill", "--jobs", "2",
                               "--retries", "1")
        assert capsys.readouterr().out == baseline
        self.assert_lost_then_acked(stitched(run_dir))

    def test_timed_out_attempt_leaves_a_complete_tree(
            self, tmp_path, capsys, monkeypatch):
        baseline = baseline_stdout(tmp_path, capsys)
        monkeypatch.setenv(FAULTS_ENV, HANG_PLAN)
        run_dir = traced_fleet(tmp_path, "hang", "--cell-timeout", "1",
                               "--retries", "1")
        assert capsys.readouterr().out == baseline
        tree = stitched(run_dir)
        self.assert_lost_then_acked(tree)
        (lost,) = spans_for(tree, "fig3[0.7]", "lost")
        assert [e["error_type"] for e in lost["events"]] == \
            ["CellTimeoutError"]


class TestStoreFaultTrace:
    def test_store_retries_are_traced_but_canonically_invisible(
            self, tmp_path, capsys, monkeypatch):
        """Store contention shows up as store_retry events on the
        retried cells' spans in the raw rows, yet the canonical
        projection equals a fault-free run's — backoff is schedule, not
        causality."""
        clean = traced_fleet(tmp_path, "clean", "--jobs", "2")
        monkeypatch.setenv(FAULTS_ENV, BUSY_PLAN)
        busy = traced_fleet(tmp_path, "busy", "--jobs", "2")
        monkeypatch.delenv(FAULTS_ENV)
        capsys.readouterr()
        rows = load_trace_rows([busy])
        retry_events = [e for row in rows for e in row["events"]
                        if e["name"] == "store_retry"]
        assert retry_events, "busy faults must be traced as store_retry"
        assert all(not e["det"] for e in retry_events)
        assert {row["kind"] for row in rows if any(
            e["name"] == "store_retry" for e in row["events"])} == {"cell"}
        assert (canonical(stitched(busy)) == canonical(stitched(clean)))


class TestTracingOff:
    def test_untraced_runs_write_no_trace_artifacts(self, tmp_path,
                                                    capsys, monkeypatch):
        """Tracing follows telemetry: a run without ``--telemetry``
        writes no trace file anywhere."""
        monkeypatch.chdir(tmp_path)
        rc = main(["fig3", "--store", f"sqlite:{tmp_path}/plain.db",
                   "--jobs", "2"])
        assert rc == 0
        capsys.readouterr()
        assert list(tmp_path.rglob("*.jsonl")) == []
