"""The trace reader: tree assembly, completeness invariants, canonical
projection, critical-path attribution — all on synthetic span rows."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.__main__ import main as obs_main
from repro.obs.schema import header_line
from repro.obs.stitch import (
    canonical,
    completeness,
    critical_path,
    load_trace_rows,
    render_critical_path,
    render_tree,
    stitch,
)
from repro.obs.trace import span_id, trace_id_for

TID = trace_id_for(["k0", "k1"])
SWEEP = span_id(TID, "sweep")


def row(kind, *, key="k0", attempt=0, parent=None, status="ok",
        events=(), start=0.0, end=1.0, worker="pid-1", name=None):
    return {
        "trace": TID,
        "span": span_id(TID, kind, key, 0 if kind == "cell" else attempt),
        "parent": parent,
        "kind": kind,
        "name": name or f"{kind}:{key}",
        "key": key,
        "attempt": attempt,
        "status": status,
        "events": list(events),
        "wall": {"start": start, "end": end, "worker": worker},
    }


def attempt_row(kind="execute", *, key="k0", attempt=1, **fields):
    return row(kind, key=key, attempt=attempt,
               parent=span_id(TID, "cell", key), **fields)


def cell_rows(key="k0", *, retried=False, offset=0.0):
    """A cell and its attempts as the coordinator writes them: one
    attempt, or a failed one retried by a second."""
    final = 2 if retried else 1
    rows = [row("cell", key=key, attempt=final, parent=SWEEP,
                start=offset, end=offset + 10.0, worker="coordinator")]
    if retried:
        rows.append(attempt_row(
            key=key, attempt=1, status="error",
            events=[{"name": "fault", "det": True, "kind": "raise"},
                    {"name": "error", "det": True, "error": "ValueError"},
                    {"name": "retry_scheduled", "det": True}],
            start=offset + 1.0, end=offset + 3.0))
    rows.append(attempt_row(key=key, attempt=final,
                            start=offset + final + 2.0,
                            end=offset + final + 4.0))
    return rows


def full_tree_rows():
    sweep = row("sweep", key="", name="fig3", start=0.0, end=20.0,
                worker="coordinator")
    return [sweep] + cell_rows("k0", retried=True) + cell_rows("k1")


def without(rows, kind, key, attempt):
    return [r for r in rows if (r["kind"], r["key"], r["attempt"])
            != (kind, key, attempt)]


class TestStitch:
    def test_builds_one_rooted_tree(self):
        tree = stitch(full_tree_rows())
        assert tree["trace"] == TID
        assert tree["root"]["span"] == SWEEP
        cells = tree["children"][SWEEP]
        assert [c["key"] for c in cells] == ["k0", "k1"]
        attempts = tree["children"][span_id(TID, "cell", "k0")]
        assert [(r["kind"], r["attempt"]) for r in attempts] == \
            [("execute", 1), ("execute", 2)]

    def test_cells_keep_the_sweep_order(self):
        """The file's cell order is the sweep's: the tree lists cells in
        it, and critical-path ties keep it, whatever the keys hash to."""
        sweep = row("sweep", key="", name="fig3", start=0.0, end=20.0)
        rows = [sweep] + cell_rows("kb") + cell_rows("ka") + cell_rows("kc")
        tree = stitch(rows)
        text = render_tree(tree)
        assert text.index("cell:kb") < text.index("cell:ka") \
            < text.index("cell:kc")
        report = critical_path(tree)
        assert [c["key"] for c in report["per_cell"]] == ["kb", "ka", "kc"]


class TestCompleteness:
    def test_complete_tree_has_no_problems(self):
        assert completeness(stitch(full_tree_rows())) == []

    def test_missing_root_sweep(self):
        problems = completeness(stitch(cell_rows()))
        assert any("exactly one root sweep" in p for p in problems)

    def test_unresolved_parent(self):
        """A row whose parent is not in the trace is a second root."""
        rows = full_tree_rows()
        rows.append(row("execute", key="k1", attempt=9, parent="f" * 16))
        problems = completeness(stitch(rows))
        assert any("unresolved parent" in p for p in problems)

    def test_claim_attempt_gap(self):
        """A cell's attempts run 1..K without gaps."""
        rows = without(full_tree_rows(), "execute", "k0", 1)
        problems = completeness(stitch(rows))
        assert any("not 1..K" in p for p in problems)

    def test_more_than_one_ack(self):
        """An attempt has exactly one row: an attempt both answered and
        lost, or answered twice, is reported."""
        for extra in (attempt_row("lost", key="k1", status="error"),
                      attempt_row(key="k1")):
            rows = full_tree_rows() + [extra]
            problems = completeness(stitch(rows))
            assert any("not 1..K with one row each" in p
                       for p in problems), extra["kind"]

    def test_missing_terminal(self):
        """An ok cell's last attempt must be there: here k0's attempt 2
        is missing, so its last attempt is the failed one."""
        rows = without(full_tree_rows(), "execute", "k0", 2)
        problems = completeness(stitch(rows))
        assert any("attempt 1 is not an ok execute" in p for p in problems)

    def test_ok_cell_with_a_non_ack_terminal(self):
        for kind, status in (("execute", "error"), ("lost", "error")):
            rows = without(full_tree_rows(), "execute", "k1", 1)
            rows.append(attempt_row(kind, key="k1", status=status))
            problems = completeness(stitch(rows))
            assert any("is not an ok execute" in p for p in problems), kind

    def test_cached_cell_must_have_no_children(self):
        sweep = row("sweep", key="", start=0.0, end=1.0)
        cell = row("cell", parent=sweep["span"], status="cached")
        problems = completeness(stitch([sweep, cell, attempt_row()]))
        assert any("cached cell has attempt rows" in p for p in problems)

    def test_finished_cell_needs_a_claim_or_a_loss(self):
        """An ok cell needs its ok execute; a failed cell may end in a
        lost attempt alone."""
        sweep = row("sweep", key="", start=0.0, end=1.0)
        cell = row("cell", parent=sweep["span"])
        problems = completeness(stitch([sweep, cell]))
        assert any("attempt 0 is not an ok execute" in p for p in problems)
        failed = row("cell", parent=sweep["span"], status="failed")
        lost = attempt_row("lost", status="error")
        assert completeness(stitch([sweep, failed, lost])) == []


class TestCanonical:
    def test_strips_wall_and_schedule_events(self):
        text = canonical(stitch(full_tree_rows()))
        assert text.endswith("\n")
        for line in text.splitlines():
            parsed = json.loads(line)
            assert "wall" not in parsed
            assert all(e["det"] for e in parsed["events"])
        assert "retry_scheduled" in text  # det=True facts survive

    def test_byte_identical_across_row_order_and_schedule_noise(self):
        rows = full_tree_rows()
        noisy = []
        for r in reversed(rows):
            r = dict(r)
            r["wall"] = {"start": r["wall"]["start"] + 7.0,
                         "end": r["wall"]["end"] + 9.0, "worker": "other"}
            r["events"] = list(r["events"]) + [
                {"name": "lost", "det": False, "error_type": "WorkerLost"}]
            noisy.append(r)
        assert canonical(stitch(noisy)) == canonical(stitch(rows))


class TestCriticalPath:
    def test_buckets_attribute_the_cell_window(self):
        sweep = row("sweep", key="", name="s", start=0.0, end=10.0)
        cell = row("cell", attempt=3, parent=sweep["span"], start=0.0,
                   end=10.0)
        lost1 = attempt_row("lost", attempt=1, status="error",
                            start=0.5, end=1.5)
        exec2 = attempt_row(attempt=2, status="error", start=2.0, end=3.0,
                            events=[{"name": "retry_scheduled",
                                     "det": True}])
        exec3 = attempt_row(attempt=3, start=4.2, end=8.2)
        report = critical_path(stitch([sweep, cell, lost1, exec2, exec3]))
        assert report["cells"] == 1
        assert report["sweep_wall_s"] == pytest.approx(10.0)
        crit = report["critical_cell"]
        assert (crit["retries"], crit["losses"]) == (1, 1)
        breakdown = crit["breakdown"]
        assert set(breakdown) == {"execute", "retry", "queue_wait"}
        assert breakdown["execute"] == pytest.approx(4.0)
        assert breakdown["retry"] == pytest.approx(2.0)
        assert breakdown["queue_wait"] == pytest.approx(10.0 - 4.0 - 2.0)
        assert report["totals"] == breakdown

    def test_cached_cells_are_excluded(self):
        sweep = row("sweep", key="", start=0.0, end=1.0)
        cell = row("cell", parent=sweep["span"], status="cached")
        report = critical_path(stitch([sweep, cell]))
        assert report["cells"] == 0
        assert report["critical_cell"] is None

    def test_renderers_mention_the_load_bearing_facts(self):
        tree = stitch(full_tree_rows())
        path_text = render_critical_path(critical_path(tree))
        assert "critical cell" in path_text
        assert "queue_wait" in path_text
        assert "store" not in path_text
        tree_text = render_tree(tree)
        assert "cell cell:k0" in tree_text
        assert "[fault] [error] [retry_scheduled]" in tree_text
        capped = render_tree(tree, max_cells=1)
        assert "(+1 more cells)" in capped


def write_trace(run_dir, lines):
    traces = run_dir / "traces"
    traces.mkdir(parents=True)
    path = traces / "trace.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestLoadTraceRows:
    def test_loads_from_run_dir_traces_dir_and_file(self, tmp_path):
        write_trace(tmp_path / "run", [header_line("trace")] + [
            json.dumps(r) for r in full_tree_rows()])
        assert load_trace_rows(tmp_path / "run") == full_tree_rows()

    def test_missing_source_and_traceless_dir_are_errors(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no trace at"):
            load_trace_rows(tmp_path / "nope")
        (tmp_path / "empty").mkdir()
        with pytest.raises(ConfigurationError, match="--telemetry"):
            load_trace_rows(tmp_path / "empty")

    def test_malformed_row_is_reported_with_its_location(self, tmp_path):
        good = json.dumps(row("sweep", key=""))
        write_trace(tmp_path, [header_line("trace"), good,
                               '{"trace": "t", "span": ""}'])
        with pytest.raises(ConfigurationError,
                           match=r"trace\.jsonl:3: malformed trace row"):
            load_trace_rows(tmp_path)

    @pytest.mark.parametrize("command", ["trace", "report"])
    def test_a_v1_trace_is_refused(self, tmp_path, capsys, command):
        """A version-1 trace (its rows are claim/ack spans) is refused by
        its header, with one error line, before any row is read."""
        v1_row = dict(row("sweep", key=""), kind="claim")
        write_trace(tmp_path, ['{"artifact":"trace","schema_version":1}',
                               json.dumps(v1_row)])
        assert obs_main([command, str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ")
        assert "schema_version 1" in line
