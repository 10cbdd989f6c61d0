"""End-to-end sweeps on a store: byte-identical output, overlapping runs.

The acceptance bar for the store: a fig3 sweep on either backend, at
any worker count, prints exactly the bytes a plain ``--jobs 1`` run
prints, and runs overlapping on one store each get their own results.
(Resume after an interrupt: ``tests/runner/test_resilience.py``.)
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.experiments.__main__ import main
from repro.runner import Cell, RunConfig, run_cells
from repro.runner.cache import cell_key
from repro.store import open_store

from .helpers import pause_then


def baseline_stdout(tmp_path, capsys):
    assert main(["fig3", "--jobs", "1",
                 "--store", f"local:{tmp_path}/baseline"]) == 0
    return capsys.readouterr().out


def paused_cells(tag, n, seconds=0.1):
    return [Cell(tag, (i,), pause_then, (seconds, f"{tag}{i}"))
            for i in range(n)]


@pytest.mark.parametrize("url", ["local:{}/store", "sqlite:{}/store.db"])
def test_overlapping_sweeps_on_one_store(tmp_path, url):
    """A sweep, a different sweep and a second run of the first sweep,
    all at once on one store: every run gets exactly its own results
    (the second run of a sweep computes what it did not find stored,
    and determinism makes those bytes identical) and the store holds
    the right value under every key."""
    url = url.format(tmp_path)
    first, other = paused_cells("a", 6), paused_cells("b", 6)
    results = {}

    def sweep(name, cells):
        store = open_store(url)
        try:
            results[name] = run_cells(cells, RunConfig(jobs=1, store=store))
        finally:
            store.close()

    threads = [threading.Thread(target=sweep, args=("first", first))]
    probe = open_store(url)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the coordinators finely
    try:
        threads[0].start()
        # The others start once the first sweep is under way: it has
        # stored a result.
        deadline = time.monotonic() + 30
        while len(probe) == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        threads += [threading.Thread(target=sweep, args=("other", other)),
                    threading.Thread(target=sweep, args=("again", first))]
        for thread in threads[1:]:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert results == {"first": [f"a{i}" for i in range(6)],
                           "other": [f"b{i}" for i in range(6)],
                           "again": [f"a{i}" for i in range(6)]}
        for cell in first + other:
            assert probe.get(cell_key(cell)) == (True, cell.args[1])
    finally:
        sys.setswitchinterval(switch)
        probe.close()


class TestQueueDrivenSweep:
    """fig3 on a store, at ``--jobs 2`` and ``--jobs 1``."""

    def test_two_sqlite_workers_match_jobs_1(self, tmp_path, capsys):
        """``--store sqlite: --jobs 2`` is byte-identical to a
        sequential local-cache run."""
        baseline = baseline_stdout(tmp_path, capsys)
        rc = main(["fig3", "--store", f"sqlite:{tmp_path}/results.db",
                   "--jobs", "2"])
        assert rc == 0
        assert capsys.readouterr().out == baseline

    def test_local_worker_matches_jobs_1(self, tmp_path, capsys):
        baseline = baseline_stdout(tmp_path, capsys)
        rc = main(["fig3", "--store", f"local:{tmp_path}/queue-store",
                   "--jobs", "1"])
        assert rc == 0
        assert capsys.readouterr().out == baseline
