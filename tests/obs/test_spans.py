"""Runner spans: the full cell lifecycle as observed through run_cells."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import RunTelemetry
from repro.obs.trace import span_id
from repro.runner import Cell, RunConfig, run_cells
from repro.store import LocalFileStore, SQLiteStore

from .helpers import broken_cell, flaky_cell, sim_cell


def _cells(n=3):
    return [Cell("obs-e2e", (i,), sim_cell, (64, 200, i)) for i in range(n)]


def _facts(span):
    """A span's deterministic facts (everything but its timings)."""
    return (span.cell, span.key, span.status, span.attempts, span.retries,
            span.losses)


def test_span_requires_begin():
    with pytest.raises(ConfigurationError):
        RunTelemetry().completed(0, 1, 0.1)


def test_fresh_run_spans():
    telemetry = RunTelemetry(experiment="obs-e2e")
    run_cells(_cells(), RunConfig(jobs=1, telemetry=telemetry))
    assert [span.cell for span in telemetry.spans] == \
        [cell.label for cell in _cells()]
    for span in telemetry.spans:
        assert (span.status, span.attempts, span.retries, span.losses) == \
            ("ok", 1, 0, 0)
        assert span.duration_s is not None
        assert span.finished_s is not None
    assert telemetry.counts() == {"total": 3, "completed": 3, "cached": 0,
                                  "failed": 0, "retries": 0, "losses": 0}


def test_cached_run_spans(tmp_path):
    cache = LocalFileStore(tmp_path / "cache")
    run_cells(_cells(), RunConfig(jobs=1, store=cache))
    telemetry = RunTelemetry()
    run_cells(_cells(), RunConfig(jobs=1, store=cache, telemetry=telemetry))
    assert all(span.status == "cached" and span.duration_s is None
               for span in telemetry.spans)
    assert telemetry.counts()["cached"] == 3


def test_retried_cell_span(tmp_path):
    telemetry = RunTelemetry()
    cells = [Cell("obs-e2e", ("flaky",), flaky_cell,
                  (str(tmp_path), "s", 42))]
    results = run_cells(cells, RunConfig(jobs=1, retries=2,
                                         telemetry=telemetry))
    assert results == [42]
    (span,) = telemetry.spans
    assert (span.status, span.attempts, span.retries) == ("ok", 2, 1)
    assert telemetry.counts()["retries"] == 1


def test_failed_cell_span_keep_going():
    telemetry = RunTelemetry()
    cells = _cells(2) + [Cell("obs-e2e", ("bad",), broken_cell, ("boom",))]
    results = run_cells(cells, RunConfig(jobs=1, retries=1, keep_going=True,
                                         telemetry=telemetry))
    assert results[:2] == [sim_cell(64, 200, 0), sim_cell(64, 200, 1)]
    bad = telemetry.spans[2]
    assert (bad.status, bad.attempts, bad.retries) == ("failed", 2, 1)
    counts = telemetry.counts()
    assert counts["failed"] == 1 and counts["completed"] == 2


def test_pool_run_matches_inline_spans(tmp_path):
    """Spans minus their timings must be identical at jobs=1 and
    jobs=2, a retried cell included."""
    cells = _cells(4) + [Cell("obs-e2e", ("flaky",), flaky_cell,
                              (str(tmp_path), "s", 42))]
    facts = []
    for jobs in (1, 2):
        (tmp_path / "s").unlink(missing_ok=True)
        telemetry = RunTelemetry()
        run_cells(cells, RunConfig(jobs=jobs, retries=1, backoff_base=0.001,
                                   telemetry=telemetry))
        facts.append([_facts(span) for span in telemetry.spans])
    assert facts[0][4][2:5] == ("ok", 2, 1)
    assert facts[0] == facts[1]


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
    flaky, bad = telemetry.spans[2:]
    assert (flaky.status, flaky.attempts, flaky.retries) == ("ok", 2, 1)
    assert (bad.status, bad.attempts, bad.retries) == ("failed", 2, 1)


def test_write_trace_in_cell_order(tmp_path):
    """The coordinator's trace file opens with its schema header, then
    the sweep span and one cell span per cell, in cell order."""
    telemetry = RunTelemetry(trace_dir=tmp_path / "traces")
    run_cells(_cells(), RunConfig(jobs=2, telemetry=telemetry))
    path = telemetry.write_trace()
    lines = path.read_text().splitlines()
    assert json.loads(lines[0]) == {"artifact": "trace",
                                    "schema_version": 1}
    sweep, *cells = [json.loads(line) for line in lines[1:]]
    assert sweep["kind"] == "sweep"
    assert [r["name"] for r in cells] == [cell.label for cell in _cells()]
    for row, span in zip(cells, telemetry.spans):
        assert row["span"] == span_id(telemetry.trace_id, "cell", span.key)
        assert (row["status"], row["attempt"]) == ("ok", 1)


def test_no_trace_without_a_trace_dir():
    telemetry = RunTelemetry()
    run_cells(_cells(1), RunConfig(jobs=1, telemetry=telemetry))
    assert telemetry.trace_id == ""
    assert telemetry.trace_context(0) is None
    assert telemetry.write_trace() is None
