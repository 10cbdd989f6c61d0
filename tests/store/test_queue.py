"""Work-queue protocol conformance: claim/ack/nack/expire on every
backend.

Claim holders are real processes: a child forked to claim an item
exits and is reaped, so its pid is really gone, and the release rules
— a claim is released once its worker and its coordinator are both
dead, or at publish once it names this process and no running loop of
it — are exercised against the same ``os.kill(pid, 0)`` liveness the
runner meets.  Backoff tests pin ``time.time`` itself (both backends
read it through the queue module), so "at exactly the delay's end" is a
testable moment rather than a race.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time

import pytest

from repro.store import STORE_BACKENDS, ItemState, QueueItem, open_store
from repro.store.queue import (LOST_ERROR_TYPE, claiming, sweep_queue,
                               worker_id)

from .helpers import make_store

BACKENDS = sorted(STORE_BACKENDS.values(), key=lambda cls: cls.scheme)

FORK = multiprocessing.get_context("fork")


@pytest.fixture(params=BACKENDS, ids=lambda cls: cls.scheme)
def store(request, tmp_path):
    store = make_store(request.param, tmp_path)
    yield store
    store.close()


@pytest.fixture
def queue(store):
    return store.make_queue("sweep")


def items_for(n, max_attempts=1, sweep=0, retry_delays=()):
    return [QueueItem(item_id=i, key=f"{sweep:032x}{i:032x}",
                      label=f"cell-{i}", payload=pickle.dumps(("cell", i)),
                      max_attempts=max_attempts, retry_delays=retry_delays)
            for i in range(n)]


def queue_for(store, items):
    """The queue a coordinator opens for the sweep of ``items``."""
    return store.make_queue(sweep_queue([item.key for item in items]))


def reaped_pid():
    """The pid of a real process that has exited and been reaped."""
    proc = FORK.Process()
    proc.start()
    proc.join(30)
    assert proc.exitcode == 0
    return proc.pid


def _claim(url, sweep, coordinator, hold=None):
    """Child body: claim the next item of ``sweep`` as this process
    under ``coordinator`` (``0``: this process), then exit — once
    ``hold`` is set, when given."""
    store = open_store(url)
    try:
        store.make_queue(sweep).claim(
            worker_id(os.getpid(), coordinator or os.getpid()))
    finally:
        store.close()
    if hold is not None:
        hold.wait(30)


def claim_in_child(queue, coordinator=0):
    """Fork a child that claims ``queue``'s next item as itself under
    ``coordinator`` (``0``: its own pid) and exits; reap it and return
    the holder it recorded."""
    queue.store.close()  # no connection crosses the fork
    proc = FORK.Process(target=_claim,
                        args=(queue.store.url, queue.sweep, coordinator))
    proc.start()
    proc.join(30)
    assert proc.exitcode == 0
    return worker_id(proc.pid, coordinator or proc.pid)


def me():
    """A live holder: this process, coordinating itself."""
    return worker_id(os.getpid(), os.getpid())


class TestPublish:
    def test_publish_then_counts(self, queue):
        assert queue.publish(items_for(3)) == 3
        assert queue.counts() == {"pending": 3, "claimed": 0,
                                  "done": 0, "failed": 0}
        assert queue.unfinished() == 3

    def test_republish_is_idempotent(self, queue):
        batch = items_for(3)
        queue.publish(batch)
        item = queue.claim("w0")
        queue.ack(item.item_id)
        # Same sweep again: no new items, done state preserved (resume).
        assert queue.publish(batch) == 0
        counts = queue.counts()
        assert counts["done"] == 1
        assert counts["pending"] == 2

    def test_different_sweep_resets_the_queue(self, store):
        """A different sweep gets rows of its own, and a finished sweep
        is dropped when the next one publishes."""
        first, other = items_for(3, sweep=1), items_for(2, sweep=2)
        q_first = queue_for(store, first)
        q_first.publish(first)
        while (item := q_first.claim("w0")) is not None:
            q_first.ack(item.item_id, 0.1, b"result")
            q_first.clear_result(item.item_id)
        q_other = queue_for(store, other)
        assert q_other.sweep != q_first.sweep
        assert q_other.publish(other) == 2
        assert q_other.counts() == {"pending": 2, "claimed": 0, "done": 0,
                                    "failed": 0}
        assert q_first.snapshot() == {}


class TestClaimAckNack:
    def test_claims_come_in_item_order(self, queue):
        queue.publish(items_for(3))
        assert queue.claim("w0").item_id == 0
        assert queue.claim("w0").item_id == 1
        assert queue.claim("w0").item_id == 2
        assert queue.claim("w0") is None

    def test_claim_round_trips_the_payload(self, queue):
        queue.publish(items_for(1))
        item = queue.claim("w0")
        assert pickle.loads(item.payload) == ("cell", 0)
        assert item.key == f"{0:064x}"
        assert item.label == "cell-0"

    def test_ack_finishes_the_item(self, queue):
        queue.publish(items_for(1))
        item = queue.claim("w0")
        queue.ack(item.item_id, elapsed=0.25)
        state = queue.snapshot()[0]
        assert state.status == "done"
        assert state.elapsed == 0.25
        assert queue.unfinished() == 0
        assert queue.claim("w0") is None

    def test_nack_requeues_until_budget_spent(self, queue):
        queue.publish(items_for(1, max_attempts=2))
        item = queue.claim("w0")
        assert queue.nack(item.item_id, "ValueError", "boom 1") is True
        item = queue.claim("w1")  # retry is claimable
        assert item.attempts == 1
        assert queue.nack(item.item_id, "ValueError", "boom 2") is False
        state = queue.snapshot()[0]
        assert state.status == "failed"
        assert state.attempts == 2
        assert state.error_type == "ValueError"
        assert state.message == "boom 2"
        assert queue.claim("w0") is None
        assert queue.unfinished() == 0

    def test_single_attempt_fails_on_first_nack(self, queue):
        queue.publish(items_for(1, max_attempts=1))
        item = queue.claim("w0")
        assert queue.nack(item.item_id, "RuntimeError", "boom") is False
        assert queue.snapshot()[0].status == "failed"


class TestRelease:
    def test_claim_of_a_dead_worker_and_coordinator_is_released(
            self, queue):
        """Both pids gone: the next claim that finds nothing runnable
        releases the claim, charges one death and runs the item as its
        next attempt."""
        queue.publish(items_for(1, max_attempts=3))
        holder = claim_in_child(queue, reaped_pid())
        assert queue.snapshot()[0].worker == holder
        item = queue.claim(me())
        assert item is not None and item.item_id == 0
        assert (item.deaths, item.attempt) == (1, 2)
        state = queue.snapshot()[0]
        assert (state.status, state.worker, state.deaths) == \
            ("claimed", me(), 1)

    def test_runnable_items_come_before_releases(self, queue):
        queue.publish(items_for(2, max_attempts=3))
        claim_in_child(queue, reaped_pid())
        assert queue.claim(me()).item_id == 1
        assert queue.snapshot()[0].deaths == 0
        assert queue.claim(me()).item_id == 0

    def test_dead_worker_of_a_live_coordinator_waits_for_expire(
            self, queue):
        """Only the owning coordinator releases its workers' claims: it
        reaps the dead child and expires what it held."""
        queue.publish(items_for(1, max_attempts=3))
        holder = claim_in_child(queue, os.getpid())
        assert queue.claim(me()) is None
        state = queue.snapshot()[0]
        assert (state.status, state.deaths) == ("claimed", 0)
        assert queue.expire(holder) == [0]
        assert queue.snapshot()[0].status == "pending"
        item = queue.claim(me())
        assert (item.deaths, item.attempt) == (1, 2)

    def test_orphan_keeps_its_claim(self, queue):
        """A live worker whose coordinator died keeps its claim; once it
        is gone too, the claim is released."""
        queue.publish(items_for(1, max_attempts=3))
        hold, dead = FORK.Event(), reaped_pid()
        queue.store.close()  # no connection crosses the fork
        orphan = FORK.Process(target=_claim, args=(
            queue.store.url, queue.sweep, dead, hold))
        orphan.start()
        try:
            deadline = time.monotonic() + 30
            while (queue.snapshot()[0].status != "claimed"
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert queue.snapshot()[0].worker == worker_id(orphan.pid, dead)
            assert queue.claim(me()) is None
            assert queue.snapshot()[0].deaths == 0
        finally:
            hold.set()
            orphan.join(30)
        assert orphan.exitcode == 0
        item = queue.claim(me())
        assert item is not None and item.deaths == 1

    def test_deaths_past_the_loss_budget_fail_the_item(self, queue):
        """The release that reaches the loss budget still returns the
        item; the one that exceeds it fails the item as lost."""
        queue.publish(items_for(1, max_attempts=1))  # loss budget 1
        claim_in_child(queue, reaped_pid())
        # The second child releases the first one's claim (death 1, at
        # the budget) and takes the item itself.
        claim_in_child(queue, reaped_pid())
        assert queue.snapshot()[0].deaths == 1
        assert queue.claim(me()) is None  # death 2: over the budget
        state = queue.snapshot()[0]
        assert (state.status, state.deaths) == ("failed", 2)
        assert state.error_type == LOST_ERROR_TYPE
        assert "worker died 2 times" in state.message
        assert queue.unfinished() == 0

    def test_publish_releases_the_claims_this_process_left_behind(
            self, queue):
        """A claim that names this process — as its coordinator, or as
        its worker under any coordinator — is left over once no running
        loop of this process holds it: the next publish here releases
        it, and leaves other processes' claims alone."""
        items = items_for(4, max_attempts=3)
        queue.publish(items)
        assert queue.claim(me()).item_id == 0  # an interrupted loop
        claim_in_child(queue, os.getpid())  # a killed child's claim
        # A stale claim whose worker pid is now this process's.
        assert queue.claim(worker_id(os.getpid(), os.getppid())) \
            .item_id == 2
        foreign = claim_in_child(queue, reaped_pid())
        assert queue.publish(items) == 0
        states = queue.snapshot()
        assert [(states[i].status, states[i].deaths) for i in range(3)] \
            == [("pending", 1)] * 3
        assert (states[3].status, states[3].worker, states[3].deaths) == \
            ("claimed", foreign, 0)

    def test_publish_keeps_the_claims_of_running_loops(self, queue):
        """Only a hold in this very sweep keeps a claim that names this
        process from the release at publish."""
        queue.publish(items_for(1, max_attempts=3))
        with claiming(queue.sweep, os.getpid, os.getpid()) as holder:
            assert holder == me()
            assert queue.claim(holder).item_id == 0
            queue.publish(items_for(1, max_attempts=3))
            state = queue.snapshot()[0]
            assert (state.status, state.deaths) == ("claimed", 0)
        with claiming("another sweep", os.getpid, os.getpid()):
            queue.publish(items_for(1, max_attempts=3))
        state = queue.snapshot()[0]
        assert (state.status, state.deaths) == ("pending", 1)

    def test_holders_that_name_no_pids_are_never_released(self, queue):
        queue.publish(items_for(1))
        assert queue.claim("w0") is not None
        assert queue.claim("w1") is None
        assert queue.snapshot()[0].worker == "w0"


class TestRequeueFailed:
    def test_failed_items_reset_to_fresh_pending(self, queue):
        queue.publish(items_for(2, max_attempts=1))
        item = queue.claim("w0")
        queue.nack(item.item_id, "ValueError", "boom")
        item = queue.claim("w0")
        queue.ack(item.item_id)
        assert queue.requeue_failed() == 1
        state = queue.snapshot()[0]
        assert state.status == "pending"
        assert state.attempts == 0
        assert state.deaths == 0
        assert state.error_type == ""
        # The done item stays done; only the failed one is runnable.
        assert queue.snapshot()[1].status == "done"
        assert queue.claim("w0").item_id == 0

    def test_nothing_failed_is_a_noop(self, queue):
        queue.publish(items_for(2))
        assert queue.requeue_failed() == 0

    def test_requeue_clears_every_lease_and_loss_field(self, queue):
        """A requeued item is indistinguishable from a freshly published
        one — stale worker/deaths must not leak through (they would
        skew the loss budget of the rerun)."""
        queue.publish(items_for(1, max_attempts=1))  # loss budget 1
        assert queue.expire(claim_in_child(queue, os.getpid())) == [0]
        assert queue.snapshot()[0].status == "pending"
        assert queue.expire(claim_in_child(queue, os.getpid())) == [0]
        state = queue.snapshot()[0]
        assert (state.status, state.deaths, state.error_type) == \
            ("failed", 2, LOST_ERROR_TYPE)
        assert queue.requeue_failed() == 1
        assert queue.snapshot()[0] == ItemState()


class TestResetConsistency:
    def test_reset_items_clears_every_lease_and_loss_field(self, queue):
        queue.publish(items_for(1, max_attempts=3))
        assert queue.expire(claim_in_child(queue, os.getpid())) == [0]
        assert queue.claim("w0").deaths == 1
        queue.ack(0, elapsed=2.5)
        assert queue.reset_items([0]) == 1
        assert queue.snapshot()[0] == ItemState()
        # And the reset item is claimable by anyone, with no history.
        fresh = queue.claim("w9")
        assert fresh is not None
        assert (fresh.attempts, fresh.deaths) == (0, 0)


class TestResetItems:
    def test_done_items_reset_to_fresh_pending(self, queue):
        """The coordinator's stale-done path: a done item whose result
        vanished from the store is reset and claimable again."""
        queue.publish(items_for(3))
        item = queue.claim("w0")
        queue.ack(item.item_id, elapsed=1.5)
        assert queue.reset_items([0, 99]) == 1  # unknown ids ignored
        state = queue.snapshot()[0]
        assert state.status == "pending"
        assert state.attempts == 0
        assert state.elapsed == 0.0
        assert queue.claim("w1").item_id == 0

    def test_empty_request_is_a_noop(self, queue):
        queue.publish(items_for(1))
        assert queue.reset_items([]) == 0
        assert queue.snapshot()[0].status == "pending"


class TestBackoff:
    def test_nacked_item_waits_out_its_retry_delay(self, queue, monkeypatch):
        """The publisher's delays hold a retried item back from *every*
        worker, not just the one that nacked it."""
        now = [1_000_000.0]
        monkeypatch.setattr("repro.store.queue.time.time",
                            lambda: now[0])
        queue.publish(items_for(1, max_attempts=3, retry_delays=(5.0, 10.0)))
        assert queue.nack(queue.claim("w0").item_id, "E", "1") is True
        assert queue.claim("w1") is None
        assert queue.unfinished() == 1
        now[0] += 5.0  # the delay is over at its last instant
        item = queue.claim("w1")
        assert item is not None and item.attempts == 1
        assert queue.nack(item.item_id, "E", "2") is True
        now[0] += 9.9
        assert queue.claim("w2") is None
        now[0] += 0.1
        assert queue.claim("w2").attempts == 2

    def test_items_without_delays_retry_at_once(self, queue):
        queue.publish(items_for(1, max_attempts=2))
        assert queue.nack(queue.claim("w0").item_id, "E", "1") is True
        assert queue.claim("w1") is not None

    def test_requeue_clears_the_backoff(self, queue):
        queue.publish(items_for(1, max_attempts=2, retry_delays=(600.0,)))
        assert queue.nack(queue.claim("w0").item_id, "E", "1") is True
        assert queue.reset_items([0]) == 1
        assert queue.claim("w1") is not None


class TestSweepQueues:
    def test_sweeps_under_one_name_keep_their_own_items(self, store):
        first, other = items_for(3, sweep=1), items_for(3, sweep=2)
        q_first, q_other = queue_for(store, first), queue_for(store, other)
        q_first.publish(first)
        q_other.publish(other)
        item = q_first.claim("w0")
        q_first.ack(item.item_id, 0.5, b"result")
        assert q_first.counts()["done"] == 1
        assert q_other.counts() == {"pending": 3, "claimed": 0, "done": 0,
                                    "failed": 0}
        assert q_other.claim("w1").key == other[0].key

    def test_publishing_a_subset_keeps_the_sweep(self, store):
        """A resumed sweep publishes only its pending cells and still
        meets the rows the first run's publish of all its cells made."""
        items = items_for(3, sweep=1)
        first = queue_for(store, items)
        first.publish(items)
        item = first.claim("w0")
        first.ack(item.item_id, 0.5, b"result")
        resumed = queue_for(store, items)
        assert resumed.publish(items[1:]) == 0
        assert resumed.snapshot()[0].result == b"result"

    def test_publishing_drops_only_finished_sweeps(self, store):
        finished, stalled = items_for(2, sweep=1), items_for(2, sweep=2)
        q_finished = queue_for(store, finished)
        q_finished.publish(finished)
        while (item := q_finished.claim("w0")) is not None:
            q_finished.ack(item.item_id, 0.1, b"result")
            q_finished.clear_result(item.item_id)
        q_stalled = queue_for(store, stalled)
        q_stalled.publish(stalled)
        queue_for(store, items_for(1, sweep=3)).publish(items_for(1, sweep=3))
        assert q_finished.snapshot() == {}
        assert q_stalled.counts()["pending"] == 2
