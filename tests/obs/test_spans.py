"""Runner spans: the full cell lifecycle as observed through run_cells."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import RunTelemetry
from repro.runner import Cell, RunConfig, run_cells
from repro.store import LocalFileStore, SQLiteStore

from .helpers import broken_cell, flaky_cell, sim_cell


def _cells(n=3):
    return [Cell("obs-e2e", (i,), sim_cell, (64, 200, i)) for i in range(n)]


def test_span_requires_begin():
    with pytest.raises(ConfigurationError):
        RunTelemetry().completed(0, 0.1)


def test_fresh_run_spans():
    telemetry = RunTelemetry(experiment="obs-e2e")
    run_cells(_cells(), RunConfig(jobs=1, telemetry=telemetry))
    rows = telemetry.rows()
    assert [r["index"] for r in rows] == [0, 1, 2]
    for row in rows:
        assert row["status"] == "ok"
        assert row["attempts"] == 1
        assert row["retries"] == 0
        assert row["cache_hit"] is False
        assert row["errors"] == []
        assert row["wall"]["duration_s"] is not None
        # Wall-clock values live under "wall" and nowhere else.
        assert set(row) == {"index", "cell", "experiment", "key", "status",
                            "attempts", "retries", "losses", "cache_hit",
                            "errors", "wall"}
    assert telemetry.counts() == {"total": 3, "completed": 3, "cached": 0,
                                  "failed": 0, "retries": 0, "losses": 0}
    assert telemetry.metrics.counter(
        "runner.cells.completed", ("experiment",)).value(
            experiment="obs-e2e") == 3


def test_cached_run_spans(tmp_path):
    cache = LocalFileStore(tmp_path / "cache")
    run_cells(_cells(), RunConfig(jobs=1, store=cache))
    telemetry = RunTelemetry()
    run_cells(_cells(), RunConfig(jobs=1, store=cache, telemetry=telemetry))
    assert all(r["status"] == "cached" and r["cache_hit"]
               for r in telemetry.rows())
    assert telemetry.counts()["cached"] == 3


def test_retried_cell_span(tmp_path):
    telemetry = RunTelemetry()
    cells = [Cell("obs-e2e", ("flaky",), flaky_cell,
                  (str(tmp_path), "s", 42))]
    results = run_cells(cells, RunConfig(jobs=1, retries=2,
                                         telemetry=telemetry))
    assert results == [42]
    (row,) = telemetry.rows()
    assert row["status"] == "ok"
    assert row["attempts"] == 2
    assert row["retries"] == 1
    assert row["errors"] == ["ValueError"]
    assert telemetry.metrics.counter(
        "runner.retries", ("experiment", "error")).value(
            experiment="obs-e2e", error="ValueError") == 1


def test_failed_cell_span_keep_going():
    telemetry = RunTelemetry()
    cells = _cells(2) + [Cell("obs-e2e", ("bad",), broken_cell, ("boom",))]
    results = run_cells(cells, RunConfig(jobs=1, retries=1, keep_going=True,
                                         telemetry=telemetry))
    assert results[:2] == [sim_cell(64, 200, 0), sim_cell(64, 200, 1)]
    bad = telemetry.rows()[2]
    assert bad["status"] == "failed"
    assert bad["attempts"] == 2
    assert bad["errors"] == ["ValueError", "ValueError"]
    counts = telemetry.counts()
    assert counts["failed"] == 1 and counts["completed"] == 2


def test_pool_run_matches_inline_spans(tmp_path):
    """Spans minus wall must be identical at jobs=1 and jobs=2, a
    retried cell included."""
    cells = _cells(4) + [Cell("obs-e2e", ("flaky",), flaky_cell,
                              (str(tmp_path), "s", 42))]
    stripped = []
    for jobs in (1, 2):
        (tmp_path / "s").unlink(missing_ok=True)
        telemetry = RunTelemetry()
        run_cells(cells, RunConfig(jobs=jobs, retries=1, backoff_base=0.001,
                                   telemetry=telemetry))
        rows = telemetry.rows()
        for row in rows:
            row.pop("wall")
        stripped.append(rows)
    assert stripped[0][4]["errors"] == ["ValueError"]
    assert stripped[0] == stripped[1]


@pytest.mark.parametrize("host", ["none", "local", "sqlite"])
def test_retried_cell_span_on_every_queue_host(tmp_path, host):
    """The retry and keep-going spans at jobs=2, wherever the queue
    lives: a temporary database, a local store's sidecar, a sqlite
    store's own database."""
    store = {"none": None,
             "local": LocalFileStore(tmp_path / "store"),
             "sqlite": SQLiteStore(tmp_path / "store.sqlite")}[host]
    telemetry = RunTelemetry()
    cells = _cells(2) + [
        Cell("obs-e2e", ("flaky",), flaky_cell, (str(tmp_path), "s", 42)),
        Cell("obs-e2e", ("bad",), broken_cell, ("boom",))]
    results = run_cells(cells, RunConfig(
        jobs=2, store=store, retries=1, backoff_base=0.001, keep_going=True,
        telemetry=telemetry))
    assert results[2] == 42
    flaky, bad = telemetry.rows()[2:]
    assert (flaky["status"], flaky["attempts"], flaky["retries"],
            flaky["errors"]) == ("ok", 2, 1, ["ValueError"])
    assert (bad["status"], bad["attempts"], bad["retries"],
            bad["errors"]) == ("failed", 2, 1, ["ValueError", "ValueError"])


def test_write_jsonl_in_cell_order(tmp_path):
    telemetry = RunTelemetry()
    run_cells(_cells(), RunConfig(jobs=2, telemetry=telemetry))
    path = telemetry.write_jsonl(tmp_path / "spans.jsonl")
    lines = path.read_text().splitlines()
    assert json.loads(lines[0]) == {"artifact": "spans",
                                    "schema_version": 1}
    rows = [json.loads(line) for line in lines[1:]]
    assert [r["index"] for r in rows] == [0, 1, 2]
