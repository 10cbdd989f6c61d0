"""Schema validators: accept the writers' real output, reject drift."""

import pytest

from repro.obs.schema import (
    validate_manifest,
    validate_series_row,
    validate_trace_row,
)

GOOD_SERIES = {"access": 1024, "part": 0, "occupancy": 128, "target": 256,
               "alpha": 1.25, "miss_rate": 0.5, "insertions": 7,
               "evictions": 7}
GOOD_NACK = {"trace": "ab" * 16, "span": "cd" * 8, "parent": "ef" * 8,
             "kind": "nack", "name": "fig5[mcf]", "key": "ab12",
             "attempt": 1, "status": "error",
             "events": [{"name": "error", "det": True, "error": "ValueError"},
                        {"name": "store_retry", "det": False,
                         "op": "queue.nack", "n": 1}],
             "wall": {"start": 1.0, "end": 1.5, "worker": "worker-7-1"}}
GOOD_LOST = dict(GOOD_NACK, kind="lost",
                 events=[{"name": "lost", "det": False,
                          "error_type": "WorkerLost"}],
                 wall={"start": None, "end": 2.0, "worker": "coordinator"})
GOOD_SWEEP = dict(GOOD_NACK, parent=None, kind="sweep", name="fig5", key="",
                  attempt=0, status="ok", events=[],
                  wall={"start": 0.0, "end": 3.0, "worker": "coordinator"})
GOOD_MANIFEST = {"version": "1.0.0", "experiment": "fig5", "interval": 1024,
                 "profile": False,
                 "cells": {"total": 1, "completed": 1, "cached": 0,
                           "failed": 0, "retries": 0, "losses": 0},
                 "artifacts": {"series": [], "traces": ["coordinator.jsonl"]},
                 "wall": {"started_utc": "", "total_s": 1.0, "phases": []}}


@pytest.mark.parametrize("checker,row", [
    (validate_trace_row, GOOD_NACK),
    (validate_trace_row, GOOD_LOST),
    (validate_series_row, GOOD_SERIES),
    (validate_trace_row, GOOD_SWEEP),
    (validate_manifest, GOOD_MANIFEST),
])
def test_good_documents_validate(checker, row):
    assert checker(row) == []


@pytest.mark.parametrize("mutate,fragment", [
    (lambda r: r.update(access=0), "'access' must be >= 1"),
    (lambda r: r.update(miss_rate=1.5), "in [0, 1]"),
    (lambda r: r.update(alpha="high"), "number or null"),
    (lambda r: r.pop("occupancy"), "missing key 'occupancy'"),
    (lambda r: r.update(part=-1), "int >= 0"),
])
def test_bad_series_rows_rejected(mutate, fragment):
    row = dict(GOOD_SERIES)
    mutate(row)
    problems = validate_series_row(row)
    assert any(fragment in p for p in problems), problems


def test_series_none_fields_allowed():
    row = dict(GOOD_SERIES, alpha=None, miss_rate=None)
    assert validate_series_row(row) == []


@pytest.mark.parametrize("mutate,fragment", [
    (lambda r: r.update(kind="query"), "'kind' must be one of"),
    (lambda r: r["events"][0].update(det=1), "'det' must be a bool"),
    (lambda r: r["events"][1].update(n=[1]), "'n' must be a scalar"),
    (lambda r: r["wall"].pop("worker"), "missing key 'worker'"),
    (lambda r: r.update(duration_s=1.0), "unexpected key 'duration_s'"),
    (lambda r: r.update(status="done"), "'status' must be one of"),
    (lambda r: r.update(attempt=-1), "'attempt' must be an int >= 0"),
    (lambda r: r.update(parent=""), "non-empty string or null"),
])
def test_bad_trace_rows_rejected(mutate, fragment):
    row = dict(GOOD_NACK, wall=dict(GOOD_NACK["wall"]),
               events=[dict(e) for e in GOOD_NACK["events"]])
    mutate(row)
    problems = validate_trace_row(row)
    assert any(fragment in p for p in problems), problems


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.update(version=""), "non-empty string"),
    (lambda d: d.update(interval=0), "int >= 1"),
    (lambda d: d["cells"].pop("retries"), "missing key 'retries'"),
    (lambda d: d.update(artifacts="traces"), "must be an object"),
    (lambda d: d.update(artifacts={"series": [], "spans": []}),
     "unexpected key 'spans'"),
])
def test_bad_manifests_rejected(mutate, fragment):
    doc = dict(GOOD_MANIFEST, cells=dict(GOOD_MANIFEST["cells"]))
    mutate(doc)
    problems = validate_manifest(doc)
    assert any(fragment in p for p in problems), problems


def test_non_dict_documents_rejected():
    for checker in (validate_series_row, validate_trace_row,
                    validate_manifest):
        assert checker([1, 2]) and checker(None)
