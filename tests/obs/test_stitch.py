"""The stitcher: merging, completeness invariants, canonical projection,
critical-path attribution — all on synthetic span rows."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
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


def row(kind, *, key="k0", attempt=0, parent=None, status="ok",
        events=(), start=0.0, end=1.0, worker="w1", trace=TID, name=None):
    return {
        "trace": trace,
        "span": span_id(trace, kind, key, attempt),
        "parent": parent,
        "kind": kind,
        "name": name or f"{kind}:{key}",
        "key": key,
        "attempt": attempt,
        "status": status,
        "events": list(events),
        "wall": {"start": start, "end": end, "worker": worker},
    }


def queue_cell_rows(key="k0", *, retried=False, cell_status="ok",
                    offset=0.0):
    """A complete queue-mode cell subtree, optionally with one retry."""
    sweep = span_id(TID, "sweep")
    cell = row("cell", key=key, parent=sweep, status=cell_status,
               start=offset, end=offset + 10.0, worker="coord")
    rows = [cell]
    final = 2 if retried else 1
    for attempt in range(1, final + 1):
        claim = row("claim", key=key, attempt=attempt, parent=cell["span"],
                    start=offset + attempt, end=offset + attempt + 0.1)
        execute = row("execute", key=key, attempt=attempt,
                      parent=claim["span"], start=offset + attempt + 0.1,
                      end=offset + attempt + 2.0,
                      status="error" if attempt < final else "ok")
        rows.extend([claim, execute])
        if attempt < final:
            rows.append(row("nack", key=key, attempt=attempt,
                            parent=claim["span"], status="error",
                            events=[{"name": "error", "det": True,
                                     "error": "ValueError"},
                                    {"name": "retry_scheduled",
                                     "det": True}],
                            start=offset + attempt + 2.0,
                            end=offset + attempt + 2.1))
    terminal = "ack" if cell_status == "ok" else "nack"
    rows.append(row(terminal, key=key, attempt=final,
                    parent=span_id(TID, "claim", key, final),
                    status="ok" if terminal == "ack" else "error",
                    start=offset + final + 2.0, end=offset + final + 2.5))
    return rows


def full_tree_rows():
    sweep = row("sweep", key="", name="fig3", start=0.0, end=20.0,
                worker="coord")
    return ([sweep] + queue_cell_rows("k0", retried=True)
            + queue_cell_rows("k1"))


class TestStitch:
    def test_builds_one_rooted_tree(self):
        tree = stitch(full_tree_rows())
        assert tree["trace"] == TID
        assert tree["root"] == span_id(TID, "sweep")
        cells = tree["children"][tree["root"]]
        assert [tree["spans"][c]["key"] for c in cells] == ["k0", "k1"]

    def test_duplicate_spans_merge_instead_of_forking(self):
        """At-least-once delivery: the same execute observed by two
        workers collapses into one node — events deduped, the definite
        status wins, wall window unioned, workers joined."""
        a = row("execute", attempt=1, parent="p", start=1.0, end=2.0,
                worker="w1", events=[{"name": "fault", "det": True}])
        b = row("execute", attempt=1, parent="p", start=1.5, end=3.0,
                worker="w2", status="error",
                events=[{"name": "fault", "det": True},
                        {"name": "store_retry", "det": False}])
        tree = stitch([a, b])
        (merged,) = tree["spans"].values()
        assert merged["status"] == "error"
        assert merged["events"] == [{"name": "fault", "det": True},
                                    {"name": "store_retry", "det": False}]
        assert merged["wall"] == {"start": 1.0, "end": 3.0,
                                  "worker": "w1+w2"}

    def test_rows_from_several_traces_need_an_explicit_id(self):
        other = trace_id_for(["other"])
        rows = [row("sweep", key=""), row("sweep", key="", trace=other)]
        with pytest.raises(ConfigurationError, match="pass trace_id"):
            stitch(rows)
        tree = stitch(rows, trace_id=other)
        assert tree["trace"] == other
        assert len(tree["spans"]) == 1


class TestCompleteness:
    def test_complete_tree_has_no_problems(self):
        assert completeness(stitch(full_tree_rows())) == []

    def test_missing_root_sweep(self):
        problems = completeness(stitch(queue_cell_rows()))
        assert any("exactly one root sweep" in p for p in problems)

    def test_unresolved_parent(self):
        rows = full_tree_rows()
        rows.append(row("claim", key="k1", attempt=9, parent="f" * 16))
        problems = completeness(stitch(rows))
        assert any("unresolved parent" in p for p in problems)

    def test_claim_attempt_gap(self):
        rows = [r for r in full_tree_rows()
                if not (r["key"] == "k0" and r["attempt"] == 1
                        and r["kind"] in ("claim", "execute", "nack"))]
        problems = completeness(stitch(rows))
        assert any("not 1..K" in p for p in problems)

    def test_claim_without_execute(self):
        rows = [r for r in full_tree_rows()
                if not (r["kind"] == "execute" and r["key"] == "k1")]
        problems = completeness(stitch(rows))
        assert any("has no execute span" in p for p in problems)

    def test_retried_attempt_without_nack(self):
        rows = [r for r in full_tree_rows() if r["kind"] != "nack"]
        problems = completeness(stitch(rows))
        assert any("retried but has no nack" in p for p in problems)

    def test_more_than_one_ack(self):
        rows = full_tree_rows()
        stray = row("ack", key="k0", attempt=1,
                    parent=span_id(TID, "claim", "k0", 1))
        rows.append(stray)
        problems = completeness(stitch(rows))
        assert any("2 ack spans" in p for p in problems)

    def test_missing_terminal(self):
        rows = [r for r in full_tree_rows()
                if not (r["kind"] == "ack" and r["key"] == "k1")]
        problems = completeness(stitch(rows))
        assert any("no terminal span" in p for p in problems)

    def test_ok_cell_with_a_non_ack_terminal(self):
        rows = [r for r in full_tree_rows() if r["key"] != "k0"]
        nack = row("nack", key="k1", attempt=1,
                   parent=span_id(TID, "claim", "k1", 1), status="error")
        rows = [r for r in rows if r["kind"] != "ack"] + [nack]
        problems = completeness(stitch(rows))
        assert any("terminal is nack" in p for p in problems)

    def test_cached_cell_must_have_no_children(self):
        sweep = row("sweep", key="", start=0.0, end=1.0)
        cell = row("cell", parent=sweep["span"], status="cached")
        claim = row("claim", attempt=1, parent=cell["span"])
        problems = completeness(stitch([sweep, cell, claim]))
        assert any("cached cell has child spans" in p for p in problems)

    def test_finished_cell_needs_a_claim_or_a_loss(self):
        sweep = row("sweep", key="", start=0.0, end=1.0)
        cell = row("cell", parent=sweep["span"])
        execute = row("execute", attempt=1, parent=cell["span"])
        problems = completeness(stitch([sweep, cell, execute]))
        assert any("no claim span" in p for p in problems)
        failed = row("cell", parent=sweep["span"], status="failed")
        lost = row("lost", attempt=1, parent=failed["span"],
                   status="error")
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
                {"name": "lease_renew", "det": False}]
            noisy.append(r)
        assert canonical(stitch(noisy)) == canonical(stitch(rows))


class TestCriticalPath:
    def test_buckets_attribute_the_cell_window(self):
        sweep = row("sweep", key="", name="s", start=0.0, end=10.0)
        cell = row("cell", parent=sweep["span"], start=0.0, end=10.0)
        claim1 = row("claim", attempt=1, parent=cell["span"],
                     start=0.0, end=1.0)
        exec1 = row("execute", attempt=1, parent=claim1["span"],
                    start=1.0, end=3.0, status="error")
        nack1 = row("nack", attempt=1, parent=claim1["span"],
                    start=3.0, end=3.5, status="error")
        claim2 = row("claim", attempt=2, parent=cell["span"],
                     start=4.0, end=4.2)
        exec2 = row("execute", attempt=2, parent=claim2["span"],
                    start=4.2, end=8.2)
        ack = row("ack", attempt=2, parent=claim2["span"],
                  start=8.2, end=8.7)
        tree = stitch([sweep, cell, claim1, exec1, nack1, claim2, exec2,
                       ack])
        report = critical_path(tree)
        assert report["cells"] == 1
        assert report["sweep_wall_s"] == pytest.approx(10.0)
        breakdown = report["critical_cell"]["breakdown"]
        assert breakdown["execute"] == pytest.approx(4.0)
        assert breakdown["retry"] == pytest.approx(2.5)
        assert breakdown["store"] == pytest.approx(1.7)
        assert breakdown["queue_wait"] == pytest.approx(
            10.0 - 4.0 - 2.5 - 1.7)
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
        tree_text = render_tree(tree)
        assert "cell cell:k0" in tree_text
        assert "[retry_scheduled]" in tree_text
        capped = render_tree(tree, max_cells=1)
        assert "(+1 more cells)" in capped


class TestLoadTraceRows:
    def test_loads_from_run_dir_traces_dir_and_file(self, tmp_path):
        traces = tmp_path / "run" / "traces"
        traces.mkdir(parents=True)
        path = traces / "w1.jsonl"
        lines = [header_line("trace")] + [
            json.dumps(r) for r in full_tree_rows()]
        path.write_text("\n".join(lines) + "\n")
        n = len(full_tree_rows())
        assert len(load_trace_rows([tmp_path / "run"])) == n
        assert len(load_trace_rows([traces])) == n
        assert len(load_trace_rows([path])) == n

    def test_missing_source_and_traceless_dir_are_errors(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            load_trace_rows([tmp_path / "nope"])
        (tmp_path / "empty").mkdir()
        with pytest.raises(ConfigurationError, match="--trace"):
            load_trace_rows([tmp_path / "empty"])

    def test_malformed_row_is_reported_with_its_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps(row("sweep", key=""))
        path.write_text(header_line("trace") + "\n" + good + "\n"
                        + '{"trace": "t", "span": ""}\n')
        with pytest.raises(ConfigurationError,
                           match=r"bad\.jsonl:\d+: malformed trace row"):
            load_trace_rows([path])
