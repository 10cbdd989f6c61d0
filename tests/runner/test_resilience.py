"""Fault tolerance: retries, timeouts, keep-going sweeps, fault injection.

The deterministic fault plan (:mod:`repro.store.faults`) drives most
of these: a plan names exact cells and attempt numbers, so every
scenario either always recovers or always fails — no timing or
scheduling dependence — and chaos runs stay byte-identical to
fault-free runs.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro

from repro.errors import CellTimeoutError, ConfigurationError, WorkerError
from repro.runner import (
    FAULTS_ENV,
    CacheCorruptionWarning,
    Cell,
    FailedCell,
    Fault,
    FaultPlan,
    InjectedFaultError,
    Progress,
    RetryPolicy,
    RunConfig,
    cell_key,
    load_manifest,
    run_cells,
    write_manifest,
)
from repro.store import LocalFileStore, SQLiteStore, active_plan

from .helpers import (
    FlakyConfig,
    interrupt_once,
    kill_after_cached,
    kill_after_peers,
    kill_once,
    logged_nap_cells,
    nap_cells,
    raise_value_error,
    sleep_forever,
    square,
    square_cells,
    succeed_after,
)

#: Backoff fast enough for tests but still exercising the delay path.
FAST = {"backoff_base": 0.001, "backoff_cap": 0.01}


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    """Never inherit a fault plan from the invoking environment."""
    monkeypatch.delenv(FAULTS_ENV, raising=False)


class TestRetryPolicy:
    def test_delay_is_deterministic_and_capped(self):
        policy = RetryPolicy(retries=5, backoff_base=0.05, backoff_cap=0.2)
        delays = [policy.delay(n) for n in range(1, 6)]
        assert delays == [0.05, 0.1, 0.2, 0.2, 0.2]
        # A pure function of the attempt number: no jitter, ever.
        assert delays == [policy.delay(n) for n in range(1, 6)]

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError, match="retries"):
            RetryPolicy(retries=-1)
        with pytest.raises(ConfigurationError, match="cell_timeout"):
            RetryPolicy(cell_timeout=0)
        with pytest.raises(ConfigurationError, match="non-negative"):
            RetryPolicy(backoff_base=-0.1)

    def test_loss_budget_never_zero(self):
        assert RetryPolicy(retries=0).loss_budget == 1
        assert RetryPolicy(retries=3).loss_budget == 3


class TestRetries:
    def test_transient_failure_recovers_inline(self, tmp_path):
        cells = [Cell("t", (0,), succeed_after, (str(tmp_path), "c0", 2, 7))]
        assert run_cells(cells, RunConfig(jobs=1, retries=2, **FAST)) == [7]
        assert len(list(tmp_path.glob("c0.attempt*"))) == 3

    def test_transient_failure_recovers_in_pool(self, tmp_path):
        cells = square_cells(3) + [
            Cell("t", (0,), succeed_after, (str(tmp_path), "c0", 1, 7))]
        assert run_cells(cells, RunConfig(jobs=2, retries=1,
                                          **FAST)) == [0, 1, 4, 7]
        assert len(list(tmp_path.glob("c0.attempt*"))) == 2

    def test_exhausted_retries_raise_raw_inline(self, tmp_path):
        cells = [Cell("t", (0,), succeed_after, (str(tmp_path), "c0", 9, 7))]
        with pytest.raises(WorkerError, match="attempt 3") as excinfo:
            run_cells(cells, RunConfig(jobs=1, retries=2, **FAST))
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert len(list(tmp_path.glob("c0.attempt*"))) == 3

    def test_exhausted_retries_raise_worker_error_in_pool(self, tmp_path):
        cells = square_cells(2) + [
            Cell("t", (0,), succeed_after, (str(tmp_path), "c0", 9, 7))]
        with pytest.raises(WorkerError, match=r"t\[0\]: ValueError"):
            run_cells(cells, RunConfig(jobs=2, retries=1, **FAST))
        assert len(list(tmp_path.glob("c0.attempt*"))) == 2

    def test_retry_waits_out_its_backoff_in_the_pool(self, tmp_path):
        """The idle second worker does not claim the failed cell before
        its backoff has passed."""
        cells = [Cell("t", (0,), succeed_after, (str(tmp_path), "c0", 1, 7)),
                 Cell("t", (1,), square, (None, 3))]
        assert run_cells(cells, RunConfig(jobs=2, retries=1, backoff_base=0.5,
                                          backoff_cap=0.5)) == [7, 9]
        first, second = (tmp_path.joinpath(f"c0.attempt{n}").stat().st_mtime
                         for n in (1, 2))
        assert second - first >= 0.45

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retry_is_announced_on_stderr(self, tmp_path, capsys, jobs):
        cells = square_cells(2) + [
            Cell("t", (0,), succeed_after, (str(tmp_path), "c0", 1, 7))]
        run_cells(cells, RunConfig(jobs=jobs, retries=1, **FAST,
                                   progress=Progress(sys.stderr)))
        err = capsys.readouterr().err
        assert "t[0]: attempt 1 failed (ValueError" in err
        assert "retrying in" in err


class TestKeepGoing:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_completes_around_failed_cell(self, tmp_path, jobs):
        cache = LocalFileStore(tmp_path)
        cells = [
            Cell("t", (0,), square, (None, 3)),
            Cell("t", (1,), raise_value_error, ("broken",)),
            Cell("t", (2,), square, (None, 4)),
        ]
        results = run_cells(cells, RunConfig(jobs=jobs, store=cache,
                                             keep_going=True, **FAST))
        assert results[0] == 9 and results[2] == 16
        failed = results[1]
        assert isinstance(failed, FailedCell)
        assert failed.index == 1
        assert failed.label == "t[1]"
        assert failed.error_type == "ValueError"
        assert failed.message == "broken"
        assert failed.attempts == 1
        assert isinstance(failed.exc, ValueError)
        # Every successful cell was persisted despite the failure.
        assert len(cache) == 2

    def test_failed_cell_counts_toward_progress(self, capsys):
        cells = [Cell("t", (0,), raise_value_error, ("broken",))] \
            + square_cells(1)
        run_cells(cells, RunConfig(jobs=1, keep_going=True,
                                   progress=Progress(sys.stderr), **FAST))
        err = capsys.readouterr().err
        assert "t[0]: FAILED" in err
        assert "2/2" in err

    def test_keep_going_with_retries_records_attempts(self, tmp_path):
        cells = [Cell("t", (0,), succeed_after,
                      (str(tmp_path), "c0", 9, 7))]
        results = run_cells(cells, RunConfig(jobs=1, retries=2,
                                             keep_going=True, **FAST))
        assert results[0].attempts == 3


class TestTimeouts:
    def test_hung_cell_is_killed_and_failed(self, tmp_path):
        cache = LocalFileStore(tmp_path)
        cells = [Cell("t", (0,), square, (None, 3)),
                 Cell("t", ("hang",), sleep_forever, ())]
        results = run_cells(cells, RunConfig(jobs=2, store=cache,
                                             cell_timeout=0.5, keep_going=True,
                                             **FAST))
        assert results[0] == 9
        failed = results[1]
        assert isinstance(failed, FailedCell)
        assert failed.error_type == "CellTimeoutError"
        assert "cell-timeout of 0.5s" in failed.message
        assert len(cache) == 1

    def test_timeout_raises_without_keep_going(self):
        cells = [Cell("t", ("hang",), sleep_forever, ())]
        # cell_timeout forks a worker even at jobs=1: a hung cell on the
        # calling thread could never be killed.
        with pytest.raises(CellTimeoutError, match="cell-timeout"):
            run_cells(cells, RunConfig(jobs=1, cell_timeout=0.5, **FAST))


class TestPoolRecovery:
    def test_killed_worker_cell_retries_on_respawned_pool(self, tmp_path):
        """A worker death implicates the in-flight cell once; after the
        pool respawns, the cell reruns and the sweep completes."""
        cells = square_cells(3) + [
            Cell("t", ("k",), kill_once, (str(tmp_path), "k", 42))]
        assert run_cells(cells, RunConfig(jobs=2, **FAST)) == [0, 1, 4, 42]

    def test_every_cell_may_kill_its_worker_once(self, tmp_path):
        """Deaths while holding a cell are bounded by that cell's loss
        budget, not by a fleet-wide cap: at jobs=2 and retries=0, eight
        cells that each kill their worker once all complete."""
        cells = [Cell("t", (i,), kill_once, (str(tmp_path), f"k{i}", i))
                 for i in range(8)]
        assert run_cells(cells, RunConfig(jobs=2, **FAST)) == list(range(8))

    def test_repeat_killer_fails_with_worker_error(self, tmp_path):
        """A cell that keeps killing its worker exhausts the loss budget
        instead of respawning forever.  The killer waits for its peers'
        cache entries, so it is the only cell in flight at each break."""
        cache = LocalFileStore(tmp_path)
        cells = square_cells(3) + [
            Cell("t", ("k",), kill_after_cached, (str(tmp_path), 3))]
        with pytest.raises(WorkerError, match="worker pool broke"):
            run_cells(cells, RunConfig(jobs=2, store=cache, **FAST))
        # The innocent cells all completed and were persisted.
        assert len(cache) == 3

    def test_repeat_killer_as_failed_cell_under_keep_going(self, tmp_path):
        cache = LocalFileStore(tmp_path)
        cells = square_cells(2) + [
            Cell("t", ("k",), kill_after_cached, (str(tmp_path), 2))]
        results = run_cells(cells, RunConfig(jobs=2, store=cache,
                                             keep_going=True, **FAST))
        assert results[:2] == [0, 1]
        assert isinstance(results[2], FailedCell)
        assert results[2].error_type == "WorkerError"


def _store_on(host, tmp_path):
    """The store a sweep persists to: none, a local store or a sqlite
    store."""
    if host == "local":
        return LocalFileStore(tmp_path / "store")
    if host == "sqlite":
        return SQLiteStore(tmp_path / "store.sqlite")
    return None


@pytest.mark.parametrize("host", ["none", "local", "sqlite"])
class TestEveryQueueHost:
    """Timeouts and worker deaths at jobs=2, with or without a store of
    either backend."""

    def run(self, cells, host, tmp_path, **fields):
        store = _store_on(host, tmp_path)
        results = run_cells(cells, RunConfig(jobs=2, store=store, **FAST,
                                             **fields))
        return results, store

    def test_hung_cell_is_killed_and_failed(self, host, tmp_path):
        cells = [Cell("t", (0,), square, (None, 3)),
                 Cell("t", ("hang",), sleep_forever, ())]
        results, store = self.run(cells, host, tmp_path, cell_timeout=0.5,
                                  keep_going=True)
        assert results[0] == 9
        assert results[1].error_type == "CellTimeoutError"
        assert "cell-timeout of 0.5s" in results[1].message
        if store is not None:
            assert len(store) == 1

    def test_timeout_raises_without_keep_going(self, host, tmp_path):
        cells = [Cell("t", ("hang",), sleep_forever, ())]
        with pytest.raises(CellTimeoutError, match="cell-timeout"):
            self.run(cells, host, tmp_path, cell_timeout=0.5)

    def test_hung_attempt_is_retried(self, host, tmp_path, monkeypatch):
        plan = FaultPlan((Fault(cell="squares[1]", kind="hang",
                                seconds=30.0, attempts=(1,)),))
        monkeypatch.setenv(FAULTS_ENV, plan.to_json())
        results, _ = self.run(square_cells(3), host, tmp_path, retries=1,
                              cell_timeout=0.5)
        assert results == [0, 1, 4]

    def test_killed_worker_cell_reruns_without_waiting_out_the_lease(
            self, host, tmp_path):
        """The coordinator reaps the dead worker and reruns its cell at
        once; nothing waits for a timeout."""
        cells = square_cells(3) + [
            Cell("t", ("k",), kill_once, (str(tmp_path), "k", 42))]
        start = time.monotonic()
        results, _ = self.run(cells, host, tmp_path)
        assert results == [0, 1, 4, 42]
        assert time.monotonic() - start < 10.0

    def test_repeat_killer_fails_with_worker_error(self, host, tmp_path):
        cells = square_cells(3) + [
            Cell("t", ("k",), kill_after_peers, (str(tmp_path), ()))]
        store = _store_on(host, tmp_path)
        with pytest.raises(WorkerError, match="worker pool broke"):
            run_cells(cells, RunConfig(jobs=2, store=store, **FAST))
        if store is not None:
            assert len(store) == 3

    def test_repeat_killer_as_failed_cell_under_keep_going(
            self, host, tmp_path):
        cells = square_cells(2) + [
            Cell("t", ("k",), kill_after_peers, (str(tmp_path), ()))]
        results, _ = self.run(cells, host, tmp_path, keep_going=True)
        assert results[:2] == [0, 1]
        assert results[2].error_type == "WorkerError"
        assert results[2].attempts == 2


#: Runs the sweep of ``nap_cells(4, 0.5)`` in a process of its own and
#: prints its results: ``python -c SWEEP JOBS STORE_URL``.
SWEEP = ("import sys\n"
         "from repro.runner import RunConfig, run_cells\n"
         "from tests.runner.helpers import nap_cells\n"
         "print(run_cells(nap_cells(4, 0.5),\n"
         "                RunConfig(jobs=int(sys.argv[1]),\n"
         "                          store=sys.argv[2])))\n")

#: Runs the sweep of ``logged_nap_cells(8, 1.0, LOG_DIR)`` the same way:
#: ``python -c LOGGED_SWEEP JOBS STORE_URL LOG_DIR``.
LOGGED_SWEEP = ("import sys\n"
                "from repro.runner import RunConfig, run_cells\n"
                "from tests.runner.helpers import logged_nap_cells\n"
                "print(run_cells(logged_nap_cells(8, 1.0, sys.argv[3]),\n"
                "                RunConfig(jobs=int(sys.argv[1]),\n"
                "                          store=sys.argv[2])))\n")

ROOT = Path(__file__).resolve().parents[2]


class TestDeadCoordinator:
    """A coordinator that dies mid-sweep leaves nothing behind but the
    results it stored: the rerun serves those and runs the rest at
    once, without waiting for a timeout."""

    def sweep(self, log, *args, script=SWEEP):
        """Start a sweep in a session of its own (so its process group
        can be signalled and cleaned up as one)."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(repro.__file__).resolve().parents[1]), str(ROOT)]))
        return subprocess.Popen(
            [sys.executable, "-c", script, *map(str, args)], cwd=ROOT,
            env=env, stdout=subprocess.PIPE, stderr=log,
            start_new_session=True)

    def rerun(self, procs, tmp_path, *args, script=SWEEP):
        """Rerun the sweep; its stdout, which must come within 15 s."""
        with open(tmp_path / "rerun.log", "wb") as log:
            procs.append(self.sweep(log, *args, script=script))
        try:
            out, _ = procs[-1].communicate(timeout=15)
        except subprocess.TimeoutExpired:
            pytest.fail("the rerun did not finish within 15 s")
        assert procs[-1].returncode == 0
        return out.decode()

    @staticmethod
    def stored(probe, count):
        """Wait until ``probe`` holds ``count`` results."""
        deadline = time.monotonic() + 30
        while len(probe) < count:
            assert time.monotonic() < deadline, "the sweep never ran"
            time.sleep(0.01)

    @staticmethod
    def cleanup(procs):
        for proc in procs:  # the whole group: no worker outlives it
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()

    @pytest.mark.parametrize("jobs, interrupt", [(1, False), (2, True)],
                             ids=["kill9-jobs1", "sigint-jobs2"])
    def test_rerun_releases_the_dead_claims_at_once(self, tmp_path, jobs,
                                                    interrupt):
        db = tmp_path / "store.sqlite"
        url = f"sqlite:{db}"
        procs = []
        with open(tmp_path / "sweep.log", "wb") as log:
            procs.append(self.sweep(log, jobs, url))
        probe = SQLiteStore(db)
        try:
            # Signal mid-sweep: one result is stored, a later cell runs.
            self.stored(probe, 1)
            if interrupt:
                os.killpg(procs[0].pid, signal.SIGINT)  # Ctrl-C
            else:
                procs[0].kill()
            procs[0].communicate(timeout=30)
            assert 0 < len(probe) < 4, "the sweep must die partway"
            assert self.rerun(procs, tmp_path, jobs, url) == \
                "[0, 1, 2, 3]\n"
            assert len(probe) == 4
        finally:
            self.cleanup(procs)
            probe.close()

    def test_no_cell_starts_after_the_coordinator_is_killed(self, tmp_path):
        """SIGKILL a --jobs 2 coordinator partway through: its workers
        finish the attempts they are running and exit, so no cell
        starts after the kill, and the rerun prints every result."""
        db = tmp_path / "store.sqlite"
        url = f"sqlite:{db}"
        starts = tmp_path / "starts"
        starts.mkdir()
        procs = []
        with open(tmp_path / "sweep.log", "wb") as log:
            procs.append(self.sweep(log, 2, url, starts,
                                    script=LOGGED_SWEEP))
        probe = SQLiteStore(db)
        try:
            self.stored(probe, 1)
            procs[0].kill()  # the coordinator only, not its workers
            killed = time.time()
            procs[0].communicate(timeout=30)
            # Longer than a cell: an orphan still taking cells would
            # have started another by now.
            time.sleep(3.0)
            late = sorted(path.name for path in starts.iterdir()
                          if float(path.read_text()) > killed + 0.5)
            assert late == [], f"cells started after the kill: {late}"
            assert len(probe) < 8, "the sweep must die partway"
            assert self.rerun(procs, tmp_path, 2, url, starts,
                              script=LOGGED_SWEEP) == f"{list(range(8))}\n"
        finally:
            self.cleanup(procs)
            probe.close()


class TestInterruptedInProcess:
    """A sweep interrupted in a process that lives on — a REPL, a
    notebook, a service that catches ``KeyboardInterrupt`` — leaves no
    worker and no state behind but its stored results, at ``--jobs 1``
    and ``--jobs N`` alike: rerunning the sweep there finishes at
    once."""

    @pytest.fixture(autouse=True)
    def ctrl_c(self):
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        yield
        signal.signal(signal.SIGINT, previous)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rerun_in_the_same_process_releases_its_claims(self, tmp_path,
                                                          jobs):
        db = tmp_path / "store.sqlite"
        url = f"sqlite:{db}"
        cells = [Cell("t", (0,), square, (None, 3)),
                 Cell("t", ("ctrl-c",), interrupt_once,
                      (str(tmp_path), url, os.getpid(), 42)),
                 *nap_cells(2, 0.2)]
        with pytest.raises(KeyboardInterrupt):
            run_cells(cells, RunConfig(jobs=jobs, store=url))
        assert multiprocessing.active_children() == []
        probe = SQLiteStore(db)
        try:
            assert probe.get(cell_key(cells[0])) == (True, 9)
            assert not probe.contains(cell_key(cells[1]))
            results = []
            rerun = threading.Thread(
                target=lambda: results.append(
                    run_cells(cells, RunConfig(jobs=jobs, store=url))),
                daemon=True)
            rerun.start()
            rerun.join(15)
            assert not rerun.is_alive(), \
                "the rerun did not finish within 15 s"
            assert results == [[9, 42, 0, 1]]
            assert len(probe) == 4
        finally:
            probe.close()


class TestFaultPlan:
    """Plans of cell entries only, as the runner's chaos tests write them."""

    def test_json_round_trip(self):
        plan = FaultPlan((
            Fault(cell="fig3[0.6]", kind="raise", attempts=(1, 2)),
            Fault(cell="fig3[0.7]", kind="hang", seconds=1.5),
            Fault(cell="fig3[0.8]", kind="corrupt"),
        ))
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_active_plan_from_env(self, monkeypatch):
        assert active_plan() is None
        plan = FaultPlan((Fault(cell="t[0]", kind="raise"),))
        monkeypatch.setenv(FAULTS_ENV, plan.to_json())
        assert active_plan() == plan

    def test_active_plan_from_file(self, monkeypatch, tmp_path):
        plan = FaultPlan((Fault(cell="t[0]", kind="kill"),))
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json(), encoding="utf-8")
        monkeypatch.setenv(FAULTS_ENV, f"@{path}")
        assert active_plan() == plan
        monkeypatch.setenv(FAULTS_ENV, f"@{tmp_path / 'absent.json'}")
        with pytest.raises(ConfigurationError, match="cannot read"):
            active_plan()


class TestFaultInjection:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_injected_raise_recovers_with_retry(self, monkeypatch, jobs):
        plan = FaultPlan((Fault(cell="squares[1]", kind="raise"),))
        monkeypatch.setenv(FAULTS_ENV, plan.to_json())
        assert run_cells(square_cells(3), RunConfig(jobs=jobs, retries=1,
                                                    **FAST)) == [0, 1, 4]

    def test_injected_raise_without_retry_fails(self, monkeypatch):
        plan = FaultPlan((Fault(cell="squares[1]", kind="raise"),))
        monkeypatch.setenv(FAULTS_ENV, plan.to_json())
        with pytest.raises(WorkerError, match="InjectedFaultError") as excinfo:
            run_cells(square_cells(3), RunConfig(jobs=1))
        assert isinstance(excinfo.value.__cause__, InjectedFaultError)

    def test_injected_kill_recovers_via_pool_respawn(self, monkeypatch):
        plan = FaultPlan((Fault(cell="squares[1]", kind="kill",
                                attempts=(1,)),))
        monkeypatch.setenv(FAULTS_ENV, plan.to_json())
        assert run_cells(square_cells(3), RunConfig(jobs=2, **FAST)) == [0, 1,
                                                    4]

    def test_injected_hang_recovers_via_timeout(self, monkeypatch):
        plan = FaultPlan((Fault(cell="squares[1]", kind="hang",
                                seconds=30.0, attempts=(1,)),))
        monkeypatch.setenv(FAULTS_ENV, plan.to_json())
        assert run_cells(square_cells(3), RunConfig(jobs=2, retries=1,
                                                    cell_timeout=0.5,
                                                    **FAST)) == [0, 1, 4]

    def test_injected_corruption_quarantines_and_recomputes(
            self, monkeypatch, tmp_path):
        cache = LocalFileStore(tmp_path)
        cells = square_cells(2)
        assert run_cells(cells, RunConfig(store=cache)) == [0, 1]
        plan = FaultPlan((Fault(cell="squares[0]", kind="corrupt"),))
        monkeypatch.setenv(FAULTS_ENV, plan.to_json())
        with pytest.warns(CacheCorruptionWarning, match="quarantined"):
            assert run_cells(cells, RunConfig(store=cache)) == [0, 1]
        path = cache.path_for(cell_key(cells[0]))
        assert path.exists()  # recomputed and rewritten
        assert path.with_name(path.name + ".corrupt").exists()


class TestManifest:
    def _failures(self):
        return [
            FailedCell(index=2, label="t[2]", key="b" * 64,
                       error_type="ValueError", message="late",
                       attempts=3, elapsed=1.25),
            FailedCell(index=0, label="t[0]", key="a" * 64,
                       error_type="CellTimeoutError", message="early",
                       attempts=1, elapsed=0.5),
        ]

    def test_round_trip_sorted_by_index(self, tmp_path):
        path = write_manifest(tmp_path / "failures" / "t.json", "t",
                              self._failures())
        doc = load_manifest(path)
        assert doc["manifest_version"] == 1
        assert doc["experiment"] == "t"
        assert [f["cell"] for f in doc["failures"]] == ["t[0]", "t[2]"]
        entry = doc["failures"][1]
        assert entry == {"cell": "t[2]", "key": "b" * 64, "index": 2,
                         "error_type": "ValueError", "message": "late",
                         "attempts": 3, "elapsed": 1.25}

    def test_empty_manifest_is_meaningful(self, tmp_path):
        path = write_manifest(tmp_path / "t.json", "t", [])
        assert load_manifest(path)["failures"] == []

    def test_load_rejects_non_manifest(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": 1}', encoding="utf-8")
        with pytest.raises(ConfigurationError, match="not a failure"):
            load_manifest(path)


def _flaky_cells(config):
    return [
        Cell("figflaky", (0,), square, (config, 2)),
        Cell("figflaky", (1,), raise_value_error, ("permanently broken",)),
        Cell("figflaky", (2,), square, (config, 3)),
    ]


class TestCliChaos:
    """End-to-end: the CLI under an injected fault storm."""

    def test_chaos_fig3_is_byte_identical(self, monkeypatch, tmp_path,
                                          capsys):
        """A fig3 sweep hit by a transient exception, a worker kill and a
        corrupted cache entry — run with ``--keep-going --retries 2`` —
        completes with an empty manifest and stdout byte-identical to a
        fault-free ``--jobs 1`` run."""
        from repro.experiments.__main__ import main
        from repro.experiments.registry import get_experiment

        baseline_dir = tmp_path / "baseline"
        chaos_dir = tmp_path / "chaos"
        assert main(["fig3", "--jobs", "1",
                     "--store", f"local:{baseline_dir}"]) == 0
        baseline = capsys.readouterr().out

        # Seed the chaos cache fully, then knock out two entries so the
        # raise/kill faults hit genuinely executing cells while
        # fig3[0.9] stays served from the cache.
        assert main(["fig3", "--jobs", "1",
                     "--store", f"local:{chaos_dir}"]) == 0
        capsys.readouterr()
        spec = get_experiment("fig3")
        cache = LocalFileStore(chaos_dir)
        cells = {c.label: c for c in spec.cells(spec.config("scaled"))}
        assert set(cells) == {"fig3[0.6]", "fig3[0.7]",
                              "fig3[0.8]", "fig3[0.9]"}
        for label in ("fig3[0.6]", "fig3[0.7]"):
            cache.path_for(cell_key(cells[label])).unlink()

        plan = FaultPlan((
            Fault(cell="fig3[0.6]", kind="raise", attempts=(1,)),
            Fault(cell="fig3[0.7]", kind="kill", attempts=(1,)),
            Fault(cell="fig3[0.8]", kind="corrupt"),
        ))
        monkeypatch.setenv(FAULTS_ENV, plan.to_json())
        with pytest.warns(CacheCorruptionWarning):
            rc = main(["fig3", "--jobs", "2", "--keep-going",
                       "--retries", "2", "--store", f"local:{chaos_dir}"])
        assert rc == 0
        chaos = capsys.readouterr()
        assert chaos.out == baseline
        doc = load_manifest(chaos_dir / "failures" / "fig3.json")
        assert doc["failures"] == []

    def test_permanent_failure_names_cell_and_keeps_the_rest(
            self, tmp_path, capsys):
        """Under ``--keep-going`` a permanently failing cell exits 1, the
        manifest names exactly that cell, and every other cell's result
        is in the cache."""
        from repro.experiments.__main__ import main
        from repro.experiments.registry import register_experiment, unregister

        register_experiment(name="figflaky", config_cls=FlakyConfig,
                            reduce=lambda config, results: results,
                            format=str)(_flaky_cells)
        cache_dir = tmp_path / "cache"
        try:
            rc = main(["figflaky", "--scale", "smoke", "--jobs", "2",
                       "--keep-going", "--retries", "1",
                       "--store", f"local:{cache_dir}"])
        finally:
            unregister("figflaky")
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # no partial table on stdout
        assert ("figflaky[1] failed after 2 attempt(s): "
                "ValueError: permanently broken") in captured.err
        assert "rerun the same command" in captured.err

        doc = load_manifest(cache_dir / "failures" / "figflaky.json")
        assert [f["cell"] for f in doc["failures"]] == ["figflaky[1]"]
        assert doc["failures"][0]["attempts"] == 2
        # Both healthy cells were computed and persisted.
        assert len(list(cache_dir.rglob("*.pkl"))) == 2

    def test_resilience_flags_accept_clean_run(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig3", "--scale", "smoke", "--no-cache",
                     "--retries", "2", "--cell-timeout", "120",
                     "--keep-going"]) == 0
        assert "alpha_2" in capsys.readouterr().out
