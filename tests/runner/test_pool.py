"""Runner semantics: ordering, errors, interrupt resumption."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.errors import ConfigurationError, WorkerError
from repro.runner import Cell, Progress, RunConfig, run_cells
from repro.store import LocalFileStore

from .helpers import (
    kill_after_cached,
    raise_configuration_error,
    raise_value_error,
    square_cells,
    touch_and_return,
)


class TestOrderingAndJobs:
    def test_sequential_matches_parallel(self):
        cells = square_cells(8)
        assert (run_cells(cells, RunConfig(jobs=1))
                == run_cells(cells, RunConfig(jobs=2)))

    def test_results_are_in_cell_order(self):
        assert run_cells(square_cells(5),
                         RunConfig(jobs=4)) == [0, 1, 4, 9, 16]

    def test_jobs_zero_means_cpu_count(self):
        assert run_cells(square_cells(2), RunConfig(jobs=0)) == [0, 1]

    def test_empty_sweep(self):
        assert run_cells([], RunConfig(jobs=4)) == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_storeless_sweep_opens_no_database(self, tmp_path, jobs):
        """Dispatch is in memory: a fresh interpreter that imports
        ``repro`` and runs a store-less sweep loads no ``sqlite3``, in
        the coordinator or in a forked worker, and writes no file."""
        script = (
            "import sys\n"
            "import repro\n"
            "from repro.runner import Cell, RunConfig, run_cells\n"
            "from tests.runner.helpers import module_loaded, square_cells\n"
            "cells = square_cells(2) + [\n"
            "    Cell('t', ('sqlite3',), module_loaded, ('sqlite3',))]\n"
            "results = run_cells(cells, RunConfig(jobs=int(sys.argv[1])))\n"
            "assert results == [0, 1, False], results\n"
            "assert 'sqlite3' not in sys.modules\n")
        cwd, home = tmp_path / "cwd", tmp_path / "home"
        cwd.mkdir()
        home.mkdir()
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ, HOME=str(home), PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join(
                       [str(Path(repro.__file__).resolve().parents[1]),
                        str(root)]))
        env.pop("REPRO_CACHE_DIR", None)
        done = subprocess.run([sys.executable, "-c", script, str(jobs)],
                              cwd=cwd, env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert list(cwd.iterdir()) == list(home.iterdir()) == []

    def test_progress_counts_every_cell(self, capsys):
        import sys

        run_cells(square_cells(3), RunConfig(progress=Progress(sys.stderr)))
        err = capsys.readouterr().err
        assert "[squares 1/3]" in err
        assert "[squares 3/3]" in err


class TestErrorPropagation:
    def test_library_errors_unwrapped_parallel(self):
        cells = square_cells(2) + [
            Cell("t", ("boom",), raise_configuration_error, ("bad knob",))]
        with pytest.raises(ConfigurationError, match="bad knob"):
            run_cells(cells, RunConfig(jobs=2))

    def test_foreign_errors_wrapped(self):
        cells = [Cell("t", ("boom",), raise_value_error, ("oops",))]
        with pytest.raises(WorkerError, match="oops"):
            run_cells(cells, RunConfig(jobs=1))
        with pytest.raises(WorkerError, match="oops"):
            run_cells(cells + square_cells(1), RunConfig(jobs=2))

    def test_library_errors_unwrapped_inline(self):
        cells = square_cells(2) + [
            Cell("t", ("boom",), raise_configuration_error, ("bad knob",))]
        with pytest.raises(ConfigurationError, match="bad knob"):
            run_cells(cells, RunConfig(jobs=1))

    def test_worker_error_lists_every_failed_cell(self):
        """A multi-failure sweep reports ALL failed cells, not just the
        first one the pool happened to surface."""
        cells = [
            Cell("t", ("a",), raise_value_error, ("first boom",)),
            Cell("t", (1,), raise_value_error, ("second boom",)),
        ] + square_cells(2)
        with pytest.raises(WorkerError) as excinfo:
            run_cells(cells, RunConfig(jobs=2))
        message = str(excinfo.value)
        assert "2 cell(s) failed" in message
        assert "t[a]: ValueError: first boom" in message
        assert "t[1]: ValueError: second boom" in message
        # The chain preserves a real underlying exception for debugging.
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_worker_error_chains_cause_parallel(self):
        cells = [Cell("t", ("boom",), raise_value_error, ("oops",))]
        with pytest.raises(WorkerError) as excinfo:
            run_cells(cells + square_cells(1), RunConfig(jobs=2))
        assert isinstance(excinfo.value.__cause__, ValueError)


class TestResumeAfterInterrupt:
    def test_killed_worker_loses_only_its_cell(self, tmp_path):
        """Kill a worker mid-sweep; rerun must execute only the missing
        cell and still produce the full ordered result."""
        sentinels = tmp_path / "s"
        sentinels.mkdir()
        cache = LocalFileStore(tmp_path / "cache")
        good = [Cell("t", (i,), touch_and_return, (str(sentinels), f"c{i}", i))
                for i in range(3)]
        killer = Cell("t", (3,), kill_after_cached,
                      (str(tmp_path / "cache"), 3))

        with pytest.raises(WorkerError):
            run_cells(good + [killer], RunConfig(jobs=2, store=cache))
        # Every completed cell was persisted before the crash surfaced.
        assert len(cache) == 3

        # "Fix" the broken cell and rerun: only it may execute.
        for f in sentinels.iterdir():
            f.unlink()
        fixed = Cell("t", (3,), touch_and_return, (str(sentinels), "c3", 3))
        assert run_cells(good + [fixed],
                         RunConfig(jobs=2, store=cache)) == [0, 1, 2, 3]
        assert [f.name for f in sentinels.iterdir()] == ["c3"]
