"""Chaos runs: a sweep under injected store faults, byte for byte.

The acceptance bar for the resilience layer: a fig3 sweep run by
forked workers under store fault injection, or against a broken store,
prints exactly the bytes a fault-free ``--jobs 1`` run prints — or
fails loudly with the store's own error.
"""

from __future__ import annotations

import json
import multiprocessing
import sqlite3

import pytest

from repro.experiments.__main__ import main
from repro.store import FAULTS_ENV, open_store

#: Every third store call hits lock contention, result writes see extra
#: latency, and the coordinator's first result write is torn mid-blob.
NOISY_STORE_PLAN = json.dumps({"faults": [
    {"op": "*", "kind": "busy", "every": 3},
    {"op": "put", "kind": "latency", "seconds": 0.01},
    {"op": "put", "kind": "torn", "times": 1}]})

#: Every result write is broken beyond repair, or fails with a
#: transient error on every retry.
BROKEN_PUT_PLANS = {
    kind: json.dumps({"faults": [{"op": "put", "kind": kind}]})
    for kind in ("fatal", "oserror")}

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
        """Lock contention, write latency, and torn result writes are
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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("kind, error", [
        ("fatal", sqlite3.DatabaseError), ("oserror", OSError)])
    def test_permanent_put_error_fails_the_sweep(self, tmp_path,
                                                 monkeypatch, jobs, kind,
                                                 error):
        """Only the coordinator writes the store, so an error there that
        survives the retries fails the sweep with the store's own error
        at any ``--jobs`` (never mistaken for a dead worker), and no
        worker outlives it."""
        monkeypatch.setenv(FAULTS_ENV, BROKEN_PUT_PLANS[kind])
        with pytest.raises(error, match="injected store fault"):
            main(["fig3", "--store", f"sqlite:{tmp_path}/broken.db",
                  "--jobs", jobs])
        assert multiprocessing.active_children() == []

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
