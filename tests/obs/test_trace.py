"""Trace primitives: deterministic IDs, writer, spans, ambient events."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.runtime import TELEMETRY_ENV
from repro.obs.schema import load_jsonl, validate_trace_row
from repro.obs.trace import (
    SPAN_KINDS,
    TraceWriter,
    Tracer,
    add_event,
    ambient_tracer,
    close_ambient_writers,
    execute_span,
    set_worker,
    span_id,
    trace_id_for,
)
from repro.store.queue import sweep_queue


@pytest.fixture(autouse=True)
def _default_worker():
    """Worker names and cached writers must not leak across tests."""
    yield
    set_worker("")
    close_ambient_writers()


class TestIdentity:
    def test_trace_id_is_a_pure_function_of_the_key_sequence(self):
        a = trace_id_for(["k0", "k1"])
        assert a == trace_id_for(["k0", "k1"])
        assert a != trace_id_for(["k1", "k0"])  # order is identity
        assert a != trace_id_for(["k0"])
        assert len(a) == 32

    def test_sweep_id_is_the_trace_id_prefix(self):
        """One digest names a sweep's queue rows and its trace; pinned,
        so neither identity can drift."""
        keys = ["k0", "k1"]
        assert trace_id_for(keys) == "56e330a66e2308987c5f1a479210acdd"
        assert sweep_queue(keys) == trace_id_for(keys)[:16]

    def test_span_id_depends_on_every_component(self):
        tid = trace_id_for(["k"])
        base = span_id(tid, "claim", "k", 1)
        assert base == span_id(tid, "claim", "k", 1)
        assert base != span_id(tid, "execute", "k", 1)
        assert base != span_id(tid, "claim", "k2", 1)
        assert base != span_id(tid, "claim", "k", 2)
        assert len(base) == 16

    def test_unknown_span_kind_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown span kind"):
            span_id("t" * 32, "query", "k", 1)

    def test_every_declared_kind_is_accepted(self):
        for kind in SPAN_KINDS:
            assert span_id("t" * 32, kind, "k", 0)


class TestTraceWriter:
    def test_fresh_file_gets_the_schema_header(self, tmp_path):
        writer = TraceWriter(tmp_path / "traces" / "w.jsonl")
        writer.write({"hello": 1})
        writer.close()
        lines = [json.loads(line) for line in
                 (tmp_path / "traces" / "w.jsonl").read_text().splitlines()]
        assert lines[0] == {"artifact": "trace", "schema_version": 1}
        assert lines[1] == {"hello": 1}

    def test_append_mode_keeps_existing_rows_and_header(self, tmp_path):
        path = tmp_path / "w.jsonl"
        first = TraceWriter(path)
        first.write({"n": 1})
        first.close()
        second = TraceWriter(path)
        second.write({"n": 2})
        second.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 3  # one header, two rows
        assert json.loads(lines[0])["artifact"] == "trace"


def make_tracer(tmp_path, worker="w1"):
    tid = trace_id_for(["k0", "k1"])
    return Tracer(tid, TraceWriter(tmp_path / f"{worker}.jsonl"), worker)


class TestSpan:
    def test_row_shape_is_schema_valid_and_wall_confined(self, tmp_path):
        tracer = make_tracer(tmp_path)
        with tracer.span("claim", "cell[0]", key="k0", attempt=1) as span:
            span.event("store_retry", op="claim", n=1)
            span.event("fault", det=True, kind="raise")
        (row,) = load_jsonl(tmp_path / "w1.jsonl")
        assert validate_trace_row(row) == []
        assert row["span"] == span_id(tracer.trace_id, "claim", "k0", 1)
        assert row["status"] == "ok"
        assert row["events"] == [
            {"name": "store_retry", "det": False, "op": "claim", "n": 1},
            {"name": "fault", "det": True, "kind": "raise"},
        ]
        # Wall facts live under "wall" and nowhere else.
        assert set(row["wall"]) == {"start", "end", "worker"}
        assert row["wall"]["worker"] == "w1"
        assert row["wall"]["end"] >= row["wall"]["start"]

    def test_exception_exit_records_error_event_and_status(self, tmp_path):
        tracer = make_tracer(tmp_path)
        with pytest.raises(ValueError):
            with tracer.span("execute", "cell[0]", key="k0", attempt=1):
                raise ValueError("boom")
        (row,) = load_jsonl(tmp_path / "w1.jsonl")
        assert row["status"] == "error"
        assert {"name": "error", "det": True,
                "error": "ValueError"} in row["events"]

    def test_end_is_idempotent(self, tmp_path):
        tracer = make_tracer(tmp_path)
        span = tracer.span("ack", "cell[0]", key="k0", attempt=1)
        span.end()
        span.end("error")  # ignored: already written
        rows = load_jsonl(tmp_path / "w1.jsonl")
        assert len(rows) == 1
        assert rows[0]["status"] == "ok"

    def test_add_event_attaches_to_the_innermost_active_span(self, tmp_path):
        tracer = make_tracer(tmp_path)
        add_event("orphan")  # no active span: must be a silent no-op
        with tracer.span("claim", "cell[0]", key="k0", attempt=1):
            with tracer.span("execute", "cell[0]", key="k0", attempt=1):
                add_event("store_retry", op="queue.ack", n=1)
        claim, execute = sorted(load_jsonl(tmp_path / "w1.jsonl"),
                                key=lambda r: r["kind"])
        assert claim["events"] == []
        assert execute["events"] == [
            {"name": "store_retry", "det": False, "op": "queue.ack", "n": 1}]


class TestAmbient:
    def test_off_without_environment(self, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV, raising=False)
        assert ambient_tracer("some-trace") is None

    def test_off_without_a_trace_id(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TELEMETRY_ENV, str(tmp_path))
        assert ambient_tracer("") is None

    def test_writes_to_the_worker_named_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TELEMETRY_ENV, str(tmp_path))
        tid = trace_id_for(["k0"])
        set_worker("worker-7")
        tracer = ambient_tracer(tid)
        assert tracer is not None and tracer.trace_id == tid
        tracer.span("claim", "cell[0]", key="k0", attempt=1).end()
        (row,) = load_jsonl(tmp_path / "traces" / "worker-7.jsonl")
        assert row["wall"]["worker"] == "worker-7"

    def test_explicit_trace_id_beats_the_environment(self, tmp_path,
                                                     monkeypatch):
        """The trace ID travels only in queue items: a stale
        ``REPRO_TRACE_ID`` left in the environment is never read."""
        monkeypatch.setenv(TELEMETRY_ENV, str(tmp_path))
        monkeypatch.setenv("REPRO_TRACE_ID", trace_id_for(["env"]))
        payload_tid = trace_id_for(["payload"])
        tracer = ambient_tracer(payload_tid)
        assert tracer is not None and tracer.trace_id == payload_tid
        assert ambient_tracer("") is None


class TestExecuteSpan:
    def test_yields_none_when_tracing_is_off(self, monkeypatch):
        monkeypatch.delenv(TELEMETRY_ENV, raising=False)
        with execute_span("cell[0]", "k0", 1) as span:
            assert span is None

    def test_queue_context_parents_on_the_claim_span(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv(TELEMETRY_ENV, str(tmp_path))
        set_worker("w-exec")
        tid = trace_id_for(["k0"])
        ctx = {"trace": tid, "parent": span_id(tid, "claim", "k0", 1)}
        with execute_span("cell[0]", "k0", 1, ctx):
            pass
        (row,) = load_jsonl(tmp_path / "traces" / "w-exec.jsonl")
        assert row["kind"] == "execute"
        assert row["parent"] == ctx["parent"]
        assert row["trace"] == tid
