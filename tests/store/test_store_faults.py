"""The fault plan and the store wrapper, end to end.

Covers the layers the chaos smoke relies on: plan parsing for both
entry families and deterministic op schedules
(:mod:`repro.store.faults`), the transient/permanent error line and
bounded retries (:mod:`repro.store.retry`), and injection inside the
retry wrapper — a retried put through an injected torn write must
leave a valid entry behind.
"""

from __future__ import annotations

import errno
import json
import sqlite3
import sys
import threading
from collections import Counter

import pytest

from repro.errors import ConfigurationError
from repro.runner import Cell, RetryPolicy, RunConfig, run_cells
from repro.runner.worker import wrap_store
from repro.store import (
    FAULTS_ENV,
    CacheCorruptionWarning,
    Fault,
    FaultPlan,
    LocalFileStore,
    QueueItem,
    RetryingStore,
    StoreFault,
    active_plan,
    call_with_retries,
    is_transient_store_error,
    store_retry_policy,
)
from repro.store.faults import STORE_OPS, FaultInjector

from .helpers import key_of, pause_then


def injector_of(*faults: StoreFault) -> FaultInjector:
    return FaultInjector(faults)


#: A document with entries of both families.
MIXED = FaultPlan((
    Fault(cell="fig3[0.6]", kind="raise", attempts=(1, 2)),
    StoreFault(op="*", kind="busy", every=3),
    Fault(cell="fig3[0.7]", kind="hang", seconds=1.5),
    StoreFault(op="get", kind="oserror", rate=0.5, seed=7),
    Fault(cell="fig3[0.8]", kind="corrupt"),
    StoreFault(op="put", kind="busy", every=3, times=2),
))


# ------------------------------------------------------------- parsing --


class TestPlanParsing:
    """One plan schema: ``cell`` entries and ``op`` entries."""

    def test_round_trip(self):
        assert FaultPlan.from_json(MIXED.to_json()) == MIXED

    def test_defaults(self):
        plan = FaultPlan.from_json(json.dumps({"faults": [
            {"cell": "t[0]", "kind": "hang"},
            {"op": "claim", "kind": "latency"}]}))
        cell, op = plan.faults
        assert cell == Fault(cell="t[0]", kind="hang")
        assert (cell.attempts, cell.seconds) == ((1,), 30.0)
        assert (op.every, op.times, op.rate) == (1, None, None)
        assert op.seconds == 0.05

    @pytest.mark.parametrize("doc,match", [
        ("nonsense", "not valid JSON"),
        ('["not", "an", "object"]', "must be an object"),
        ('{"faults": ["nope"]}', "must be an object"),
        ('{"faults": [{"kind": "busy"}]}', "missing required field"),
        ('{"faults": [{"op": "put"}]}', "missing required field"),
        ('{"faults": [{"op": "put", "kind": "busy", "wat": 1}]}',
         "unknown store-fault fields"),
        ("{nope", "not valid JSON"),
        ('{"faults": [{"cell": "t[0]"}]}', "missing required field"),
        ('{"faults": [{"cell": "t[0]", "kind": "raise", "when": 1}]}',
         "unknown fault fields"),
        ('{"faults": [{"cell": "t[0]", "op": "put", "kind": "busy"}]}',
         "names both"),
        ('{"faults": [{"cell": "t[0]", "kind": "raise", "every": 2}]}',
         "carries fields of the other"),
        ('{"faults": [{"op": "put", "kind": "busy", "attempts": [1]}]}',
         "carries fields of the other"),
    ])
    def test_malformed_documents_fail_loudly(self, doc, match):
        with pytest.raises(ConfigurationError, match=match):
            FaultPlan.from_json(doc)

    @pytest.mark.parametrize("kwargs,match", [
        (dict(op="frobnicate", kind="busy"), "unknown store-fault op"),
        (dict(op="put", kind="explode"), "unknown store-fault kind"),
        (dict(op="put", kind="busy", every=0), "every must be >= 1"),
        (dict(op="put", kind="busy", times=-1), "times must be >= 0"),
        (dict(op="put", kind="latency", seconds=-1.0), "non-negative"),
        (dict(op="put", kind="busy", rate=1.5), "rate must be in"),
        (dict(op="get", kind="torn"), "only apply to 'put'"),
        (dict(cell="t[0]", kind="explode"), "unknown fault kind"),
        (dict(cell="t[0]", kind="raise", attempts=[0]), "1-based"),
        (dict(cell="t[0]", kind="hang", seconds=-1.0), "non-negative"),
    ])
    def test_fault_validation(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            FaultPlan.from_json(json.dumps({"faults": [kwargs]}))

    def test_triggers_by_label_and_attempt(self):
        fault = Fault(cell="t[0]", kind="raise", attempts=(2,))
        assert fault.triggers("t[0]", 2)
        assert not fault.triggers("t[0]", 1)
        assert not fault.triggers("t[1]", 2)
        assert MIXED.for_cell("fig3[0.8]") == [MIXED.faults[4]]
        assert MIXED.for_cell("fig3[0.8]", kind="raise") == []

    def test_env_unset_means_no_plan(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert active_plan() is None

    def test_env_inline_json(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, MIXED.to_json())
        assert active_plan() == MIXED

    def test_env_at_path_indirection(self, monkeypatch, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(MIXED.to_json(), encoding="utf-8")
        monkeypatch.setenv(FAULTS_ENV, f"@{path}")
        assert active_plan() == MIXED

    def test_env_missing_plan_file_raises(self, monkeypatch, tmp_path):
        monkeypatch.setenv(FAULTS_ENV, f"@{tmp_path}/absent.json")
        with pytest.raises(ConfigurationError, match="cannot read"):
            active_plan()


# ----------------------------------------------------------- schedules --


class TestInjectorSchedule:
    def test_every_n_with_times_cap(self):
        injector = injector_of(
            StoreFault(op="get", kind="busy", every=3, times=2))
        fired = [bool(injector.fire("get")) for _ in range(12)]
        # 1-based matches 3 and 6 fire; the times cap stops 9 and 12.
        assert fired == [False, False, True, False, False, True,
                         False, False, False, False, False, False]

    def test_ops_are_counted_independently(self):
        injector = injector_of(StoreFault(op="put", kind="busy", every=2))
        assert injector.fire("get") == []      # no match, no count
        assert injector.fire("put") == []      # put #1
        assert injector.fire("get") == []
        assert len(injector.fire("put")) == 1  # put #2 fires

    def test_wildcard_matches_every_op(self):
        injector = injector_of(
            StoreFault(op="*", kind="busy", every=1, times=3))
        assert len(injector.fire("get")) == 1
        assert len(injector.fire("claim")) == 1
        assert len(injector.fire("renew")) == 1
        assert injector.fire("ack") == []  # times exhausted
        assert injector.injected == {"get:busy": 1, "claim:busy": 1,
                                     "renew:busy": 1}

    def test_rate_schedule_is_seed_deterministic(self):
        fault = StoreFault(op="get", kind="busy", rate=0.4, seed=11)
        pattern_a = [bool(injector_of(fault).fire("get"))
                     for _ in range(1)]  # fresh injector: first call only
        one = injector_of(fault)
        two = injector_of(fault)
        seq_one = [bool(one.fire("get")) for _ in range(50)]
        seq_two = [bool(two.fire("get")) for _ in range(50)]
        assert seq_one == seq_two          # pure function of (seed, calls)
        assert any(seq_one) and not all(seq_one)
        assert pattern_a == seq_one[:1]

    def test_kinds_raise_their_production_exceptions(self):
        busy = injector_of(StoreFault(op="*", kind="busy"))
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            busy.inject("get")
        oserr = injector_of(StoreFault(op="*", kind="oserror"))
        with pytest.raises(OSError) as exc_info:
            oserr.inject("get")
        assert exc_info.value.errno == errno.EAGAIN
        fatal = injector_of(StoreFault(op="*", kind="fatal"))
        with pytest.raises(sqlite3.DatabaseError, match="malformed"):
            fatal.inject("get")

    def test_latency_delays_without_raising(self):
        injector = injector_of(
            StoreFault(op="get", kind="latency", seconds=0.0))
        injector.inject("get")
        assert injector.injected == {"get:latency": 1}

    def test_concurrent_fires_keep_the_schedule(self):
        """A worker's heartbeat thread fires ``renew`` on the injector
        its main thread fires ``claim``/``ack``/``nack`` on: with
        threads switching every microsecond, no ``every`` count may be
        lost and no ``times`` cap overrun."""
        injector = injector_of(StoreFault(op="*", kind="busy", every=3),
                               StoreFault(op="renew", kind="oserror",
                                          times=1))
        tallies = [Counter() for _ in range(4)]

        def renew_loop(tally):
            for _ in range(3000):
                tally.update(fault.kind for fault in injector.fire("renew"))

        threads = [threading.Thread(target=renew_loop, args=(tally,))
                   for tally in tallies]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sum(tallies, Counter()) == {"busy": 4000, "oserror": 1}
        assert injector.injected == {"renew:busy": 4000, "renew:oserror": 1}


# ------------------------------------------------------ classification --


class TestTransientClassification:
    @pytest.mark.parametrize("exc", [
        sqlite3.OperationalError("database is locked"),
        sqlite3.OperationalError("database table is busy"),
        sqlite3.OperationalError("disk I/O error"),
        OSError(errno.EAGAIN, "try again"),
        OSError(errno.EBUSY, "busy"),
        OSError("errno-less oserror"),
    ])
    def test_transient(self, exc):
        assert is_transient_store_error(exc) is True

    @pytest.mark.parametrize("exc", [
        sqlite3.OperationalError("no such table: entries"),
        sqlite3.DatabaseError("database disk image is malformed"),
        sqlite3.IntegrityError("UNIQUE constraint failed"),
        OSError(errno.ENOSPC, "no space left on device"),
        OSError(errno.ENOENT, "no such file"),
        ValueError("not a store error at all"),
    ])
    def test_permanent(self, exc):
        assert is_transient_store_error(exc) is False


# -------------------------------------------------------------- retries --


class TestCallWithRetries:
    def test_transient_errors_retry_within_budget(self):
        policy = RetryPolicy(retries=3, backoff_base=0.0,
                                  backoff_cap=0.0)
        seen = []
        attempts = [0]

        def flaky():
            attempts[0] += 1
            if attempts[0] <= 2:
                raise sqlite3.OperationalError("database is locked")
            return "ok"

        result = call_with_retries(
            flaky, policy=policy, operation="store.get",
            on_retry=lambda op, exc, n: seen.append((op, n)))
        assert result == "ok"
        assert attempts[0] == 3
        assert seen == [("store.get", 1), ("store.get", 2)]

    def test_budget_exhaustion_reraises_the_transient(self):
        policy = RetryPolicy(retries=2, backoff_base=0.0,
                                  backoff_cap=0.0)

        def always_busy():
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(sqlite3.OperationalError, match="locked"):
            call_with_retries(always_busy, policy=policy)

    def test_permanent_errors_never_retry(self):
        calls = [0]

        def broken():
            calls[0] += 1
            raise sqlite3.DatabaseError("malformed")

        with pytest.raises(sqlite3.DatabaseError):
            call_with_retries(broken, policy=RetryPolicy(retries=5))
        assert calls[0] == 1

    def test_policy_validation_and_delay_shape(self):
        with pytest.raises(ConfigurationError, match=">= 0"):
            RetryPolicy(retries=-1)
        with pytest.raises(ConfigurationError, match="non-negative"):
            RetryPolicy(backoff_base=-0.1)
        policy = RetryPolicy(backoff_base=0.01, backoff_cap=0.05)
        assert [policy.delay(n) for n in (1, 2, 3, 4)] == \
            [0.01, 0.02, 0.04, 0.05]
        store = store_retry_policy(7)
        assert store.retries == 7
        assert [store.delay(n) for n in (1, 2, 5, 6)] == \
            pytest.approx([0.01, 0.02, 0.16, 0.25])


# -------------------------------------------------- wrapped store/queue --


FAST = RetryPolicy(retries=5, backoff_base=0.0, backoff_cap=0.0)


def faulty_local(tmp_path, *faults: StoreFault,
                 policy: RetryPolicy = FAST) -> RetryingStore:
    return RetryingStore(LocalFileStore(tmp_path / "store"), policy,
                         faults=FaultPlan(faults).injector())


def one_item():
    return [QueueItem(item_id=0, key=key_of(0), label="c", payload=b"p")]


class TestRetryingOverFaulty:
    def test_put_get_survive_injected_busy(self, tmp_path):
        store = faulty_local(
            tmp_path, StoreFault(op="*", kind="busy", every=1, times=4))
        store.put(key_of(1), {"v": 1})
        assert store.get(key_of(1)) == (True, {"v": 1})
        assert store.faults.injected["put:busy"] >= 1

    def test_fatal_fault_escapes_the_retry_stack(self, tmp_path):
        store = faulty_local(tmp_path, StoreFault(op="put", kind="fatal"))
        with pytest.raises(sqlite3.DatabaseError, match="malformed"):
            store.put(key_of(2), "doomed")

    def test_torn_write_recovers_through_retry(self, tmp_path):
        """The headline chaos case: a torn put leaves truncated bytes
        and raises EIO; the retry rewrites the full checksummed entry."""
        store = faulty_local(
            tmp_path, StoreFault(op="put", kind="torn", times=1))
        store.put(key_of(3), [1, 2, 3])
        assert store.get(key_of(3)) == (True, [1, 2, 3])
        assert store.quarantined_count() == 0

    def test_unretried_torn_write_is_caught_by_the_checksum(self, tmp_path):
        store = faulty_local(
            tmp_path, StoreFault(op="put", kind="torn", times=1),
            policy=RetryPolicy(retries=0))
        with pytest.raises(OSError):
            store.put(key_of(4), [1, 2, 3])
        # The truncated entry is on disk; the checksum path quarantines
        # it instead of serving garbage.
        with pytest.warns(CacheCorruptionWarning):
            assert store.get(key_of(4)) == (False, None)
        assert store.quarantined_count() == 1

    def test_queue_shares_the_store_injector(self, tmp_path):
        store = faulty_local(
            tmp_path, StoreFault(op="claim", kind="busy", every=2))
        queue = store.make_queue("sweep")
        assert queue.store is store
        queue.publish(one_item())
        item = queue.claim("w0", 60.0)   # claim #1 clean
        assert item is not None
        queue.ack(item.item_id)
        assert store.faults._seen[0] == 1

    def test_renew_faults_are_absorbed(self, tmp_path):
        store = faulty_local(
            tmp_path, StoreFault(op="renew", kind="busy", every=1, times=2))
        queue = store.make_queue("sweep")
        queue.publish(one_item())
        assert queue.claim("w0", 60.0) is not None
        assert queue.renew(0, "w0", 60.0) is True
        assert store.faults.injected["renew:busy"] == 2

    def test_every_guarded_operation_fires_and_retries(self, tmp_path):
        """STORE_OPS names exactly what the wrapper guards: a one-shot
        busy fault on each op fires inside that op and is retried."""
        calls = {
            "get": lambda s, q: s.get(key_of(0)),
            "put": lambda s, q: s.put(key_of(0), 0),
            "write_raw": lambda s, q: s.write_raw(key_of(1), b"x"),
            "quarantine": lambda s, q: s.quarantine(key_of(1)),
            "contains": lambda s, q: s.contains(key_of(0)),
            "len": lambda s, q: len(s),
            "quarantined_count": lambda s, q: s.quarantined_count(),
            "publish": lambda s, q: q.publish(one_item()),
            "claim": lambda s, q: q.claim("w0", 60.0),
            "renew": lambda s, q: q.renew(0, "w0", 60.0),
            "expire": lambda s, q: q.expire("w1"),
            "ack": lambda s, q: q.ack(0),
            "nack": lambda s, q: q.nack(0, "E", "m"),
            "clear_result": lambda s, q: q.clear_result(0),
            "overdue": lambda s, q: q.overdue(60.0),
            "requeue_failed": lambda s, q: q.requeue_failed(),
            "reset_items": lambda s, q: q.reset_items([0]),
            "snapshot": lambda s, q: q.snapshot(),
            "peek": lambda s, q: q.peek(0),
        }
        assert tuple(calls) == STORE_OPS
        for op, call in calls.items():
            seen = []
            store = RetryingStore(
                LocalFileStore(tmp_path / "store"), FAST,
                lambda name, exc, n: seen.append(name),
                FaultPlan((StoreFault(op=op, kind="busy", times=1),))
                .injector())
            queue = store.make_queue("sweep")
            for other in calls.values():
                other(store, queue)
            store.close()
            assert seen == [op], op


class TestWrapStore:
    """The one wrapper gets an injector only for a plan's op entries."""

    def test_without_env_there_is_no_injector(self, monkeypatch, tmp_path):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        store = LocalFileStore(tmp_path)
        wrapped = wrap_store(store, 5)
        assert wrapped.inner is store
        assert wrapped.faults is None

    def test_op_entries_get_an_injector(self, monkeypatch, tmp_path):
        monkeypatch.setenv(FAULTS_ENV, MIXED.to_json())
        store = LocalFileStore(tmp_path)
        wrapped = wrap_store(store, 5)
        assert isinstance(wrapped.faults, FaultInjector)
        assert wrapped.faults.faults == tuple(
            f for f in MIXED.faults if isinstance(f, StoreFault))
        # Workers reopen the raw URL and wrap it themselves.
        assert wrapped.url == store.url

    @pytest.mark.parametrize("plan", [
        FaultPlan(), FaultPlan((Fault(cell="t[0]", kind="raise"),))])
    def test_plan_without_op_entries_gets_no_injector(
            self, monkeypatch, tmp_path, plan):
        monkeypatch.setenv(FAULTS_ENV, plan.to_json())
        assert wrap_store(LocalFileStore(tmp_path), 5).faults is None


class _LockedOnce(LocalFileStore):
    """A local store whose first read once ``armed`` hits a locked
    database."""

    armed = False

    def _read(self, key):
        if self.armed:
            self.armed = False
            raise sqlite3.OperationalError("database is locked")
        return super()._read(key)


class TestHitReads:
    """Store hits go through the same wrapper as the sweep (the CLI
    side: ``tests/store/test_chaos.py``)."""

    def test_a_locked_hit_read_is_retried(self, tmp_path, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        cells = [Cell("t", (i,), pause_then, (0.0, i)) for i in range(3)]
        store = _LockedOnce(tmp_path / "store")
        assert run_cells(cells, RunConfig(store=store)) == [0, 1, 2]
        store.armed = True
        assert run_cells(cells, RunConfig(store=store)) == [0, 1, 2]
        assert not store.armed
        assert store.stats().hits == 3
