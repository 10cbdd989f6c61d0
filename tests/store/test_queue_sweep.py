"""End-to-end queue-driven sweeps: byte-identical output and resume.

The acceptance bar for the store/queue redesign: a fig3 sweep executed
by independent queue workers — any backend, any worker count, even
interrupted halfway — prints exactly the bytes a plain ``--jobs 1``
run prints.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
import time

import pytest

from repro.experiments.__main__ import main
from repro.experiments.registry import get_experiment
from repro.runner import Cell, RunConfig, run_cells
from repro.runner.cache import cell_key
from repro.store import LocalFileStore, QueueItem, open_store
from repro.store.queue import sweep_queue, worker_id

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
    and the store holds the right value under every key."""
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
        # The others start once the first sweep is published and under
        # way: it has stored a result.
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

    def test_interrupted_worker_resumes_through_the_queue(
            self, tmp_path, capsys):
        """A worker that acked 2 of 4 items and stopped (an 'interrupt')
        leaves a half-drained queue whose finished items hold their
        results; the next full run collects those results into the
        store, runs only the remainder, and still prints the baseline
        bytes."""
        baseline = baseline_stdout(tmp_path, capsys)
        store = LocalFileStore(tmp_path / "queue-store")

        # Publish the full sweep exactly as the coordinator would.
        spec = get_experiment("fig3")
        cells = list(spec.cells(spec.config("scaled")))
        keys = [cell_key(cell) for cell in cells]
        queue = store.make_queue(sweep_queue(keys))
        queue.publish([
            QueueItem(item_id=i, key=keys[i], label=cells[i].label,
                      payload=pickle.dumps((i, keys[i], cells[i]),
                                           protocol=pickle.HIGHEST_PROTOCOL))
            for i in range(len(cells))])

        # The "interrupted" worker: runs and acks exactly 2 items.
        holder = worker_id(os.getpid(), os.getpid())
        for _ in range(2):
            item = queue.claim(holder)
            value = cells[item.item_id].run()
            queue.ack(item.item_id, 0.0, pickle.dumps(value))
        counts = queue.counts()
        assert counts["done"] == 2
        assert counts["pending"] == 2
        # Workers never write the store: the results wait in the queue.
        assert len(store) == 0
        assert sum(s.result is not None
                   for s in queue.snapshot().values()) == 2
        capsys.readouterr()

        # Full rerun of the same sweep: the coordinator collects the 2
        # finished results and executes only the remaining 2 cells.
        rc = main(["fig3", "--store", store.url, "--jobs", "1"])
        assert rc == 0
        assert capsys.readouterr().out == baseline
        assert len(store) == len(cells)
        resumed = queue.snapshot()
        assert len(resumed) == len(cells)
        assert all(s.status == "done" and s.result is None
                   for s in resumed.values())
