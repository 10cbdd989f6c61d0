"""Chaos runs: queue workers under injected faults, byte for byte.

The acceptance bar for the resilience layer: a fig3 sweep executed by
queue workers under store fault injection, or against a broken store,
prints exactly the bytes a fault-free ``--jobs 1`` run prints — or
fails loudly with the right exit code.
"""

from __future__ import annotations

import json
import os
import sqlite3

import pytest

from repro.experiments.__main__ import main
from repro.runner.worker import EXIT_STORE_PERMANENT, serve
from repro.store import FAULTS_ENV, open_store

#: Every third store/queue call hits lock contention, claims see extra
#: latency, and the coordinator's first result write (workers never
#: put) is torn mid-blob.
NOISY_STORE_PLAN = json.dumps({"faults": [
    {"op": "*", "kind": "busy", "every": 3},
    {"op": "claim", "kind": "latency", "seconds": 0.01},
    {"op": "put", "kind": "torn", "times": 1}]})

#: Workers die permanently on their first claim; the coordinator —
#: which never claims — keeps running and must notice.
BROKEN_STORE_PLAN = json.dumps({"faults": [
    {"op": "claim", "kind": "fatal"}]})

#: Every hit read of the store is broken beyond repair.
BROKEN_GET_PLAN = json.dumps({"faults": [{"op": "get", "kind": "fatal"}]})

#: The first hit read meets lock contention once.
BUSY_GET_PLAN = json.dumps({"faults": [
    {"op": "get", "kind": "busy", "times": 1}]})


def baseline_stdout(tmp_path, capsys):
    assert main(["fig3", "--jobs", "1",
                 "--store", f"local:{tmp_path}/baseline"]) == 0
    return capsys.readouterr().out


class TestStoreFaultChaos:
    def test_injected_store_faults_are_absorbed_byte_identically(
            self, tmp_path, capsys, monkeypatch):
        """Lock contention, claim latency, and torn result writes are
        all absorbed by the retry stack: same bytes, full store, no
        quarantined entries."""
        baseline = baseline_stdout(tmp_path, capsys)
        monkeypatch.setenv(FAULTS_ENV, NOISY_STORE_PLAN)
        url = f"sqlite:{tmp_path}/noisy.db"
        rc = main(["fig3", "--store", url, "--jobs", "2"])
        assert rc == 0
        assert capsys.readouterr().out == baseline
        monkeypatch.delenv(FAULTS_ENV)
        store = open_store(url)
        try:
            assert len(store) == 4
            assert store.quarantined_count() == 0
        finally:
            store.close()

    def test_worker_exits_distinctly_on_a_permanent_store_error(
            self, tmp_path, capsys, monkeypatch):
        """The forked worker's body ends with EXIT_STORE_PERMANENT."""
        monkeypatch.setenv(FAULTS_ENV, BROKEN_STORE_PLAN)
        with pytest.raises(SystemExit) as exit_info:
            serve(f"local:{tmp_path}/store", "doomed", os.getpid(), 5)
        assert exit_info.value.code == EXIT_STORE_PERMANENT
        err = capsys.readouterr().err
        assert "store failure (permanent)" in err
        assert "malformed" in err

    def test_coordinator_stops_respawning_into_a_broken_store(
            self, tmp_path, capsys, monkeypatch):
        """Workers dying with EXIT_STORE_PERMANENT shrink the fleet
        instead of burning the respawn budget; the sweep fails loudly
        with the store-specific reason."""
        monkeypatch.setenv(FAULTS_ENV, BROKEN_STORE_PLAN)
        rc = main(["fig3", "--store", f"sqlite:{tmp_path}/broken.db",
                   "--jobs", "2", "--keep-going"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "aborted on permanent store errors" in err
        assert "4 failed cell(s)" in err

    def test_get_faults_reach_hit_reads(self, tmp_path, capsys,
                                        monkeypatch):
        """A warm store serves every cell from hit reads, and those go
        through the same wrapper as the sweep: a transient get fault is
        retried away, a permanent one fails the run."""
        baseline = baseline_stdout(tmp_path, capsys)
        url = f"sqlite:{tmp_path}/warm.db"
        assert main(["fig3", "--store", url, "--jobs", "1"]) == 0
        capsys.readouterr()
        monkeypatch.setenv(FAULTS_ENV, BUSY_GET_PLAN)
        assert main(["fig3", "--store", url, "--jobs", "1"]) == 0
        assert capsys.readouterr().out == baseline
        monkeypatch.setenv(FAULTS_ENV, BROKEN_GET_PLAN)
        with pytest.raises(sqlite3.DatabaseError, match="malformed"):
            main(["fig3", "--store", url, "--jobs", "1"])
