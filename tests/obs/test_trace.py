"""Trace primitives: deterministic IDs and the one trace file."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import RunTelemetry
from repro.obs.trace import (
    SPAN_KINDS,
    span_id,
    sweep_digest,
    trace_id_for,
)
from repro.runner import Cell, RunConfig, run_cells

from .helpers import sim_cell


class TestIdentity:
    def test_trace_id_is_a_pure_function_of_the_key_sequence(self):
        a = trace_id_for(["k0", "k1"])
        assert a == trace_id_for(["k0", "k1"])
        assert a != trace_id_for(["k1", "k0"])  # order is identity
        assert a != trace_id_for(["k0"])
        assert len(a) == 32

    def test_sweep_id_is_the_trace_id_prefix(self):
        """The sweep digest's prefix is the trace ID; pinned, so the
        identity cannot drift."""
        keys = ["k0", "k1"]
        assert trace_id_for(keys) == "56e330a66e2308987c5f1a479210acdd"
        assert sweep_digest(keys)[:32] == trace_id_for(keys)
        assert len(sweep_digest(keys)) == 64

    def test_span_id_depends_on_every_component(self):
        tid = trace_id_for(["k"])
        base = span_id(tid, "lost", "k", 1)
        assert base == span_id(tid, "lost", "k", 1)
        assert base != span_id(tid, "execute", "k", 1)
        assert base != span_id(tid, "lost", "k2", 1)
        assert base != span_id(tid, "lost", "k", 2)
        assert len(base) == 16

    def test_unknown_span_kind_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown span kind"):
            span_id("t" * 32, "query", "k", 1)

    def test_every_declared_kind_is_accepted(self):
        for kind in SPAN_KINDS:
            assert span_id("t" * 32, kind, "k", 0)


class TestTraceWriter:
    def test_fresh_file_gets_the_schema_header(self, tmp_path):
        """The trace is written whole: the v2 header, then one row per
        line.  Writing it again replaces the file instead of appending
        to it."""
        telemetry = RunTelemetry("obs-e2e", trace_dir=tmp_path / "traces")
        run_cells([Cell("obs-e2e", (0,), sim_cell, (64, 200, 0))],
                  RunConfig(jobs=1, telemetry=telemetry))
        path = telemetry.write_trace()
        assert path == tmp_path / "traces" / "trace.jsonl"
        telemetry.write_trace()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0] == {"artifact": "trace", "schema_version": 2}
        assert [row["kind"] for row in lines[1:]] == ["sweep", "cell"]
        assert sorted(p.name for p in path.parent.iterdir()) == \
            ["trace.jsonl"]
