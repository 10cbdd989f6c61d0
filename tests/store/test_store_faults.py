"""Store fault injection + transient-retry stack, end to end.

Covers the three layers the chaos smoke relies on: plan parsing and
deterministic schedules (:mod:`repro.store.faults`), the
transient/permanent error line and bounded retries
(:mod:`repro.store.retry`), and their composition — a retried put
through an injected torn write must leave a valid entry behind.
"""

from __future__ import annotations

import errno
import sqlite3

import pytest

from repro.errors import ConfigurationError
from repro.runner import RetryPolicy
from repro.store import (
    CacheCorruptionWarning,
    FaultyStore,
    LocalFileStore,
    QueueItem,
    RetryingQueue,
    RetryingStore,
    StoreFault,
    StoreFaultPlan,
    active_store_plan,
    call_with_retries,
    is_transient_store_error,
    maybe_faulty_store,
    store_retry_policy,
)
from repro.store.faults import STORE_FAULTS_ENV, FaultInjector

from .helpers import key_of


def plan_of(*faults: StoreFault) -> StoreFaultPlan:
    return StoreFaultPlan(faults=tuple(faults))


# ------------------------------------------------------------- parsing --


class TestPlanParsing:
    def test_round_trip(self):
        plan = plan_of(
            StoreFault(op="put", kind="busy", every=3, times=2),
            StoreFault(op="get", kind="oserror", rate=0.5, seed=7))
        assert StoreFaultPlan.from_json(plan.to_json()) == plan

    def test_defaults(self):
        plan = StoreFaultPlan.from_json(
            '{"faults": [{"op": "claim", "kind": "latency"}]}')
        fault = plan.faults[0]
        assert (fault.every, fault.times, fault.rate) == (1, None, None)
        assert fault.seconds == 0.05

    @pytest.mark.parametrize("doc,match", [
        ("nonsense", "not valid JSON"),
        ('["not", "an", "object"]', "must be an object"),
        ('{"faults": ["nope"]}', "must be an object"),
        ('{"faults": [{"kind": "busy"}]}', "missing required field"),
        ('{"faults": [{"op": "put"}]}', "missing required field"),
        ('{"faults": [{"op": "put", "kind": "busy", "wat": 1}]}',
         "unknown store-fault fields"),
    ])
    def test_malformed_documents_fail_loudly(self, doc, match):
        with pytest.raises(ConfigurationError, match=match):
            StoreFaultPlan.from_json(doc)

    @pytest.mark.parametrize("kwargs,match", [
        (dict(op="frobnicate", kind="busy"), "unknown store-fault op"),
        (dict(op="put", kind="explode"), "unknown store-fault kind"),
        (dict(op="put", kind="busy", every=0), "every must be >= 1"),
        (dict(op="put", kind="busy", times=-1), "times must be >= 0"),
        (dict(op="put", kind="latency", seconds=-1.0), "non-negative"),
        (dict(op="put", kind="busy", rate=1.5), "rate must be in"),
        (dict(op="get", kind="torn"), "only apply to 'put'"),
    ])
    def test_fault_validation(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            StoreFault(**kwargs)

    def test_env_unset_means_no_plan(self, monkeypatch):
        monkeypatch.delenv(STORE_FAULTS_ENV, raising=False)
        assert active_store_plan() is None

    def test_env_inline_json(self, monkeypatch):
        monkeypatch.setenv(
            STORE_FAULTS_ENV,
            '{"faults": [{"op": "*", "kind": "busy"}]}')
        plan = active_store_plan()
        assert plan is not None and plan.faults[0].op == "*"

    def test_env_at_path_indirection(self, monkeypatch, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('{"faults": [{"op": "ack", "kind": "oserror"}]}')
        monkeypatch.setenv(STORE_FAULTS_ENV, f"@{path}")
        plan = active_store_plan()
        assert plan is not None and plan.faults[0].op == "ack"

    def test_env_missing_plan_file_raises(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STORE_FAULTS_ENV, f"@{tmp_path}/absent.json")
        with pytest.raises(ConfigurationError, match="cannot read"):
            active_store_plan()


# ----------------------------------------------------------- schedules --


class TestInjectorSchedule:
    def test_every_n_with_times_cap(self):
        injector = FaultInjector(plan_of(
            StoreFault(op="get", kind="busy", every=3, times=2)))
        fired = [bool(injector.fire("get")) for _ in range(12)]
        # 1-based matches 3 and 6 fire; the times cap stops 9 and 12.
        assert fired == [False, False, True, False, False, True,
                         False, False, False, False, False, False]

    def test_ops_are_counted_independently(self):
        injector = FaultInjector(plan_of(
            StoreFault(op="put", kind="busy", every=2)))
        assert injector.fire("get") == []      # no match, no count
        assert injector.fire("put") == []      # put #1
        assert injector.fire("get") == []
        assert len(injector.fire("put")) == 1  # put #2 fires

    def test_wildcard_matches_every_op(self):
        injector = FaultInjector(plan_of(
            StoreFault(op="*", kind="busy", every=1, times=3)))
        assert len(injector.fire("get")) == 1
        assert len(injector.fire("claim")) == 1
        assert len(injector.fire("renew")) == 1
        assert injector.fire("ack") == []  # times exhausted
        assert injector.injected == {"get:busy": 1, "claim:busy": 1,
                                     "renew:busy": 1}

    def test_rate_schedule_is_seed_deterministic(self):
        plan = plan_of(StoreFault(op="get", kind="busy", rate=0.4, seed=11))
        pattern_a = [bool(FaultInjector(plan).fire("get"))
                     for _ in range(1)]  # fresh injector: first call only
        one = FaultInjector(plan)
        two = FaultInjector(plan)
        seq_one = [bool(one.fire("get")) for _ in range(50)]
        seq_two = [bool(two.fire("get")) for _ in range(50)]
        assert seq_one == seq_two          # pure function of (seed, calls)
        assert any(seq_one) and not all(seq_one)
        assert pattern_a == seq_one[:1]

    def test_kinds_raise_their_production_exceptions(self):
        busy = FaultInjector(plan_of(StoreFault(op="*", kind="busy")))
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            busy.inject("get")
        oserr = FaultInjector(plan_of(StoreFault(op="*", kind="oserror")))
        with pytest.raises(OSError) as exc_info:
            oserr.inject("get")
        assert exc_info.value.errno == errno.EAGAIN
        fatal = FaultInjector(plan_of(StoreFault(op="*", kind="fatal")))
        with pytest.raises(sqlite3.DatabaseError, match="malformed"):
            fatal.inject("get")

    def test_latency_delays_without_raising(self):
        injector = FaultInjector(plan_of(
            StoreFault(op="get", kind="latency", seconds=0.0)))
        assert injector.inject("get") == []
        assert injector.injected == {"get:latency": 1}


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


def faulty_local(tmp_path, *faults: StoreFault) -> FaultyStore:
    return FaultyStore(LocalFileStore(tmp_path / "store"), plan_of(*faults))


class TestRetryingOverFaulty:
    def test_put_get_survive_injected_busy(self, tmp_path):
        store = RetryingStore(
            faulty_local(tmp_path,
                         StoreFault(op="*", kind="busy", every=1, times=4)),
            FAST)
        store.put(key_of(1), {"v": 1})
        assert store.get(key_of(1)) == (True, {"v": 1})
        assert store.inner.injector.injected["put:busy"] >= 1

    def test_fatal_fault_escapes_the_retry_stack(self, tmp_path):
        store = RetryingStore(
            faulty_local(tmp_path, StoreFault(op="put", kind="fatal")),
            FAST)
        with pytest.raises(sqlite3.DatabaseError, match="malformed"):
            store.put(key_of(2), "doomed")

    def test_torn_write_recovers_through_retry(self, tmp_path):
        """The headline chaos case: a torn put leaves truncated bytes
        and raises EIO; the retry rewrites the full checksummed entry."""
        store = RetryingStore(
            faulty_local(tmp_path,
                         StoreFault(op="put", kind="torn", times=1)),
            FAST)
        store.put(key_of(3), [1, 2, 3])
        assert store.get(key_of(3)) == (True, [1, 2, 3])
        assert store.quarantined_count() == 0

    def test_unretried_torn_write_is_caught_by_the_checksum(self, tmp_path):
        store = faulty_local(
            tmp_path, StoreFault(op="put", kind="torn", times=1))
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
        queue = RetryingQueue(store.make_queue("sweep"), FAST)
        queue.publish([QueueItem(item_id=0, key=key_of(0), label="c",
                                 payload=b"p")])
        item = queue.claim("w0", 60.0)   # claim #1 clean, retry absorbs #2
        assert item is not None
        queue.ack(item.item_id)
        assert store.injector.injected.get("claim:busy", 0) >= 0
        assert store.injector._seen[0] >= 1

    def test_renew_faults_are_absorbed(self, tmp_path):
        store = faulty_local(
            tmp_path, StoreFault(op="renew", kind="busy", every=1, times=2))
        queue = RetryingQueue(store.make_queue("sweep"), FAST)
        queue.publish([QueueItem(item_id=0, key=key_of(0), label="c",
                                 payload=b"p")])
        assert queue.claim("w0", 60.0) is not None
        assert queue.renew(0, "w0", 60.0) is True
        assert store.injector.injected["renew:busy"] >= 1


class TestMaybeFaultyStore:
    def test_without_env_the_store_passes_through(self, monkeypatch,
                                                  tmp_path):
        monkeypatch.delenv(STORE_FAULTS_ENV, raising=False)
        store = LocalFileStore(tmp_path)
        assert maybe_faulty_store(store) is store

    def test_with_env_the_store_is_wrapped(self, monkeypatch, tmp_path):
        monkeypatch.setenv(
            STORE_FAULTS_ENV, '{"faults": [{"op": "get", "kind": "busy"}]}')
        store = LocalFileStore(tmp_path)
        wrapped = maybe_faulty_store(store)
        assert isinstance(wrapped, FaultyStore)
        assert wrapped.inner is store
        # Workers respawn the raw URL and wrap it themselves.
        assert wrapped.url == store.url

    def test_empty_plan_passes_through(self, monkeypatch, tmp_path):
        monkeypatch.setenv(STORE_FAULTS_ENV, '{"faults": []}')
        store = LocalFileStore(tmp_path)
        assert maybe_faulty_store(store) is store
