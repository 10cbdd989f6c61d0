"""The ``--explain`` surface, plus regression coverage for the
lock-discipline refactor the project rules forced on the real store
package."""

from pathlib import Path

import repro
from repro.devtools.lint import main

FIXTURES = Path(__file__).parent / "fixtures"
PACKAGE_DIR = Path(repro.__file__).parent


# -------------------------------------------------------- CLI surface --


def test_cli_explain_prints_rule_card(capsys):
    assert main(["--explain", "TNT001"]) == 0
    out = capsys.readouterr().out
    assert "TNT001" in out
    assert "bad:" in out and "good:" in out


def test_cli_explain_every_registered_rule(capsys):
    assert main(["--list-rules"]) == 0
    listed = capsys.readouterr().out
    for rule_id in ("DET001", "DET002", "DET004", "COR001", "CON001",
                    "CON002", "CON003", "TNT001", "API001"):
        assert rule_id in listed
        assert main(["--explain", rule_id]) == 0
        assert rule_id in capsys.readouterr().out


def test_cli_explain_unknown_rule_exits_2(capsys):
    assert main(["--explain", "NOP999"]) == 2
    assert "no such rule" in capsys.readouterr().err


def test_cli_select_unknown_rule_names_the_problem(capsys):
    assert main(["--select", "NOP001", str(FIXTURES)]) == 2
    err = capsys.readouterr().err
    assert "no such rule" in err and "NOP001" in err


# ----------------------------------- store refactor regression guards --


def test_store_package_is_lint_clean(capsys):
    assert main([str(PACKAGE_DIR / "store")]) == 0
    assert capsys.readouterr().out == ""


def test_sqlite_locked_yields_connection_under_lock(tmp_path):
    from repro.store.sqlite import SQLiteStore

    store = SQLiteStore(tmp_path / "s.db")
    try:
        with store.locked() as conn:
            assert store._lock.locked()
            assert conn.execute("SELECT 1").fetchone() == (1,)
        assert not store._lock.locked()
    finally:
        store.close()


def test_queue_claim_and_nack_still_work(tmp_path):
    """``claim``/``nack`` now borrow the connection via
    ``SQLiteStore.locked()``; the queue semantics must be unchanged."""
    from repro.store.queue import QueueItem, SQLiteWorkQueue
    from repro.store.sqlite import SQLiteStore

    store = SQLiteStore(tmp_path / "q.db")
    try:
        queue = SQLiteWorkQueue(store, "t")
        queue.publish([QueueItem(item_id=0, key="job-1", label="j",
                                 payload=b"x", max_attempts=3)])
        item = queue.claim(worker="w0", lease=60.0)
        assert item is not None and item.key == "job-1"
        assert queue.nack(item.item_id, "Boom", "bang")
        again = queue.claim(worker="w1", lease=60.0)
        assert again is not None and again.key == "job-1"
        queue.ack(again.item_id)
    finally:
        store.close()
