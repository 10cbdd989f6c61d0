"""Work-queue protocol conformance: claim/renew/ack/nack/steal on every
backend.

Leases are wall-clock, so expiry is simulated by claiming with a tiny
(or negative-effect) lease rather than sleeping: ``lease=0.0`` writes an
already-expired lease, making the item immediately stealable.  The
boundary tests go further and pin ``time.time`` itself (both backends
read it through the queue module), so "at exactly the expiry instant"
is a testable moment rather than a race.
"""

from __future__ import annotations

import pickle

import pytest

from repro.store import STORE_BACKENDS, ItemState, QueueItem
from repro.store.queue import LOST_ERROR_TYPE, sweep_fingerprint, sweep_queue

from .helpers import make_store

BACKENDS = sorted(STORE_BACKENDS.values(), key=lambda cls: cls.scheme)


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


def queue_for(store, items, name="fig"):
    """The queue a coordinator opens for the sweep of ``items``."""
    return store.make_queue(sweep_queue(name, [item.key for item in items]))


class TestPublish:
    def test_publish_then_counts(self, queue):
        assert queue.publish(items_for(3)) == 3
        assert queue.counts() == {"pending": 3, "claimed": 0,
                                  "done": 0, "failed": 0}
        assert queue.unfinished() == 3

    def test_republish_is_idempotent(self, queue):
        batch = items_for(3)
        queue.publish(batch)
        item = queue.claim("w0", lease=60.0)
        queue.ack(item.item_id)
        # Same sweep again: no new items, done state preserved (resume).
        assert queue.publish(batch) == 0
        counts = queue.counts()
        assert counts["done"] == 1
        assert counts["pending"] == 2

    def test_different_sweep_resets_the_queue(self, queue):
        queue.publish(items_for(3))
        queue.ack(0)
        other = [QueueItem(item_id=i, key=f"{i + 7:064x}", label=f"o-{i}",
                           payload=b"x") for i in range(2)]
        assert sweep_fingerprint(other) != sweep_fingerprint(items_for(3))
        assert queue.publish(other) == 2
        counts = queue.counts()
        assert counts == {"pending": 2, "claimed": 0, "done": 0, "failed": 0}


class TestClaimAckNack:
    def test_claims_come_in_item_order(self, queue):
        queue.publish(items_for(3))
        assert queue.claim("w0", lease=60.0).item_id == 0
        assert queue.claim("w0", lease=60.0).item_id == 1
        assert queue.claim("w0", lease=60.0).item_id == 2
        assert queue.claim("w0", lease=60.0) is None

    def test_claim_round_trips_the_payload(self, queue):
        queue.publish(items_for(1))
        item = queue.claim("w0", lease=60.0)
        assert pickle.loads(item.payload) == ("cell", 0)
        assert item.key == f"{0:064x}"
        assert item.label == "cell-0"

    def test_ack_finishes_the_item(self, queue):
        queue.publish(items_for(1))
        item = queue.claim("w0", lease=60.0)
        queue.ack(item.item_id, elapsed=0.25)
        state = queue.snapshot()[0]
        assert state.status == "done"
        assert state.elapsed == 0.25
        assert queue.unfinished() == 0
        assert queue.claim("w0", lease=60.0) is None

    def test_nack_requeues_until_budget_spent(self, queue):
        queue.publish(items_for(1, max_attempts=2))
        item = queue.claim("w0", lease=60.0)
        assert queue.nack(item.item_id, "ValueError", "boom 1") is True
        item = queue.claim("w1", lease=60.0)  # retry is claimable
        assert item.attempts == 1
        assert queue.nack(item.item_id, "ValueError", "boom 2") is False
        state = queue.snapshot()[0]
        assert state.status == "failed"
        assert state.attempts == 2
        assert state.error_type == "ValueError"
        assert state.message == "boom 2"
        assert queue.claim("w0", lease=60.0) is None
        assert queue.unfinished() == 0

    def test_single_attempt_fails_on_first_nack(self, queue):
        queue.publish(items_for(1, max_attempts=1))
        item = queue.claim("w0", lease=60.0)
        assert queue.nack(item.item_id, "RuntimeError", "boom") is False
        assert queue.snapshot()[0].status == "failed"


class TestLeases:
    def test_live_lease_blocks_other_workers(self, queue):
        queue.publish(items_for(1))
        assert queue.claim("w0", lease=60.0) is not None
        assert queue.claim("w1", lease=60.0) is None

    def test_expired_lease_is_stolen_and_charged(self, queue):
        queue.publish(items_for(1, max_attempts=3))  # loss budget 2
        assert queue.claim("w0", lease=0.0) is not None  # expires at once
        stolen = queue.claim("w1", lease=60.0)
        assert stolen is not None
        assert stolen.item_id == 0
        assert queue.snapshot()[0].losses == 1

    def test_loss_budget_exhaustion_fails_permanently(self, queue):
        queue.publish(items_for(1, max_attempts=1))  # loss budget 1
        assert queue.claim("w0", lease=0.0) is not None   # loss 1 pending
        assert queue.claim("w1", lease=0.0) is not None   # charges loss 1
        assert queue.claim("w2", lease=60.0) is None      # loss 2: over
        state = queue.snapshot()[0]
        assert state.status == "failed"
        assert state.losses == 2
        assert state.error_type == LOST_ERROR_TYPE
        assert "expired" in state.message

    def test_final_steal_at_exactly_the_loss_budget_succeeds(self, queue):
        """Off-by-one guard: a steal that *reaches* the budget is still
        granted; only exceeding it fails the item."""
        queue.publish(items_for(1, max_attempts=3))  # loss budget 2
        assert queue.claim("w0", lease=0.0) is not None
        assert queue.claim("w1", lease=0.0) is not None   # loss 1
        assert queue.claim("w2", lease=0.0) is not None   # loss 2 == budget
        assert queue.snapshot()[0].losses == 2
        assert queue.claim("w3", lease=60.0) is None      # loss 3: over
        state = queue.snapshot()[0]
        assert state.status == "failed"
        assert state.losses == 3

    def test_lease_valid_through_its_expiry_instant(self, queue,
                                                    monkeypatch):
        """Both backends treat ``lease_expires == now`` as *held*: an
        item becomes stealable strictly after its expiry instant."""
        queue.publish(items_for(1, max_attempts=3))
        now = [1_000_000.0]
        monkeypatch.setattr("repro.store.queue.time.time",
                            lambda: now[0])
        assert queue.claim("w0", lease=30.0) is not None
        now[0] += 30.0  # exactly lease_expires
        assert queue.claim("w1", lease=30.0) is None
        assert queue.snapshot()[0].losses == 0
        now[0] += 0.001  # strictly past expiry
        stolen = queue.claim("w1", lease=30.0)
        assert stolen is not None and stolen.item_id == 0
        assert queue.snapshot()[0].losses == 1


class TestRenewal:
    def test_renew_extends_a_live_lease(self, queue, monkeypatch):
        queue.publish(items_for(1))
        now = [1_000_000.0]
        monkeypatch.setattr("repro.store.queue.time.time",
                            lambda: now[0])
        assert queue.claim("w0", lease=10.0) is not None
        now[0] += 8.0
        assert queue.renew(0, "w0", 10.0) is True  # expires at t0 + 18
        now[0] += 8.0  # t0 + 16: original lease long gone, renewal holds
        assert queue.claim("w1", lease=10.0) is None
        state = queue.snapshot()[0]
        assert state.status == "claimed"
        assert state.worker == "w0"
        assert state.renewals == 1
        assert state.losses == 0

    def test_late_renewal_before_any_steal_revives_the_lease(
            self, queue, monkeypatch):
        """A renewal past expiry but before a steal proves the worker
        is alive (just late) — the lease revives rather than racing."""
        queue.publish(items_for(1))
        now = [1_000_000.0]
        monkeypatch.setattr("repro.store.queue.time.time",
                            lambda: now[0])
        assert queue.claim("w0", lease=10.0) is not None
        now[0] += 25.0  # well past expiry, nobody stole yet
        assert queue.renew(0, "w0", 10.0) is True
        assert queue.claim("w1", lease=10.0) is None  # held again
        assert queue.snapshot()[0].worker == "w0"

    def test_renew_by_wrong_worker_is_refused(self, queue):
        queue.publish(items_for(1))
        assert queue.claim("w0", lease=60.0) is not None
        assert queue.renew(0, "imposter", 60.0) is False
        state = queue.snapshot()[0]
        assert state.worker == "w0"
        assert state.renewals == 0

    def test_renew_after_steal_cannot_revive_the_old_claim(self, queue):
        queue.publish(items_for(1, max_attempts=3))
        assert queue.claim("w0", lease=0.0) is not None  # expires at once
        assert queue.claim("w1", lease=60.0) is not None  # steals it
        assert queue.renew(0, "w0", 60.0) is False
        state = queue.snapshot()[0]
        assert state.worker == "w1"
        assert state.losses == 1

    def test_renew_of_unclaimed_or_finished_items_is_refused(self, queue):
        queue.publish(items_for(2))
        assert queue.renew(0, "w0", 60.0) is False  # still pending
        item = queue.claim("w0", lease=60.0)
        queue.ack(item.item_id)
        assert queue.renew(item.item_id, "w0", 60.0) is False  # done
        assert queue.renew(99, "w0", 60.0) is False  # unknown id


class TestRequeueFailed:
    def test_failed_items_reset_to_fresh_pending(self, queue):
        queue.publish(items_for(2, max_attempts=1))
        item = queue.claim("w0", lease=60.0)
        queue.nack(item.item_id, "ValueError", "boom")
        item = queue.claim("w0", lease=60.0)
        queue.ack(item.item_id)
        assert queue.requeue_failed() == 1
        state = queue.snapshot()[0]
        assert state.status == "pending"
        assert state.attempts == 0
        assert state.losses == 0
        assert state.error_type == ""
        # The done item stays done; only the failed one is runnable.
        assert queue.snapshot()[1].status == "done"
        assert queue.claim("w0", lease=60.0).item_id == 0

    def test_nothing_failed_is_a_noop(self, queue):
        queue.publish(items_for(2))
        assert queue.requeue_failed() == 0

    def test_requeue_clears_every_lease_and_loss_field(self, queue):
        """A requeued item is indistinguishable from a freshly published
        one — stale worker/lease/losses/renewals must not leak through
        (they would skew the steal accounting of the rerun)."""
        queue.publish(items_for(1, max_attempts=1))  # loss budget 1
        assert queue.claim("w0", lease=60.0) is not None
        assert queue.renew(0, "w0", 0.0) is True     # renewal, then expiry
        assert queue.claim("w1", lease=0.0) is not None  # steal: loss 1
        assert queue.claim("w2", lease=60.0) is None     # loss 2: failed
        assert queue.snapshot()[0].status == "failed"
        assert queue.requeue_failed() == 1
        assert queue.snapshot()[0] == ItemState()


class TestResetConsistency:
    def test_reset_items_clears_every_lease_and_loss_field(self, queue):
        queue.publish(items_for(1, max_attempts=3))
        assert queue.claim("w0", lease=60.0) is not None
        assert queue.renew(0, "w0", 60.0) is True
        queue.ack(0, elapsed=2.5)
        assert queue.reset_items([0]) == 1
        assert queue.snapshot()[0] == ItemState()
        # And the reset item is claimable by anyone, with no history.
        fresh = queue.claim("w9", lease=60.0)
        assert fresh is not None and fresh.attempts == 0


class TestResetItems:
    def test_done_items_reset_to_fresh_pending(self, queue):
        """The coordinator's stale-done path: a done item whose result
        vanished from the store is reset and claimable again."""
        queue.publish(items_for(3))
        item = queue.claim("w0", lease=60.0)
        queue.ack(item.item_id, elapsed=1.5)
        assert queue.reset_items([0, 99]) == 1  # unknown ids ignored
        state = queue.snapshot()[0]
        assert state.status == "pending"
        assert state.attempts == 0
        assert state.elapsed == 0.0
        assert queue.claim("w1", lease=60.0).item_id == 0

    def test_empty_request_is_a_noop(self, queue):
        queue.publish(items_for(1))
        assert queue.reset_items([]) == 0
        assert queue.snapshot()[0].status == "pending"


class TestClear:
    def test_clear_drops_everything(self, queue):
        queue.publish(items_for(3))
        queue.clear()
        assert queue.snapshot() == {}
        assert queue.unfinished() == 0


class TestBackoff:
    def test_nacked_item_waits_out_its_retry_delay(self, queue, monkeypatch):
        """The publisher's delays hold a retried item back from *every*
        worker, not just the one that nacked it."""
        now = [1_000_000.0]
        monkeypatch.setattr("repro.store.queue.time.time",
                            lambda: now[0])
        queue.publish(items_for(1, max_attempts=3, retry_delays=(5.0, 10.0)))
        assert queue.nack(queue.claim("w0", 60.0).item_id, "E", "1") is True
        assert queue.claim("w1", lease=60.0) is None
        assert queue.unfinished() == 1
        now[0] += 5.0  # the delay is over at its last instant
        item = queue.claim("w1", lease=60.0)
        assert item is not None and item.attempts == 1
        assert queue.nack(item.item_id, "E", "2") is True
        now[0] += 9.9
        assert queue.claim("w2", lease=60.0) is None
        now[0] += 0.1
        assert queue.claim("w2", lease=60.0).attempts == 2

    def test_items_without_delays_retry_at_once(self, queue):
        queue.publish(items_for(1, max_attempts=2))
        assert queue.nack(queue.claim("w0", 60.0).item_id, "E", "1") is True
        assert queue.claim("w1", lease=60.0) is not None

    def test_requeue_clears_the_backoff(self, queue):
        queue.publish(items_for(1, max_attempts=2, retry_delays=(600.0,)))
        assert queue.nack(queue.claim("w0", 60.0).item_id, "E", "1") is True
        assert queue.reset_items([0]) == 1
        assert queue.claim("w1", lease=60.0) is not None


class TestSweepQueues:
    def test_sweeps_under_one_name_keep_their_own_items(self, store):
        first, other = items_for(3, sweep=1), items_for(3, sweep=2)
        q_first, q_other = queue_for(store, first), queue_for(store, other)
        q_first.publish(first)
        q_other.publish(other)
        item = q_first.claim("w0", lease=60.0)
        q_first.ack(item.item_id, 0.5, b"result")
        assert q_first.counts()["done"] == 1
        assert q_other.counts() == {"pending": 3, "claimed": 0, "done": 0,
                                    "failed": 0}
        assert q_other.claim("w1", lease=60.0).key == other[0].key
        # The plain name follows the sweep published last.
        assert store.make_queue("fig").snapshot() == q_other.snapshot()
        assert store.queues() == ["fig"]

    def test_publishing_a_subset_keeps_the_sweep(self, store):
        """A resumed sweep publishes only its pending cells and still
        meets the rows a plain-name publish of all its cells made."""
        items = items_for(3, sweep=1)
        store.make_queue("fig").publish(items)
        item = store.make_queue("fig").claim("w0", lease=60.0)
        store.make_queue("fig").ack(item.item_id, 0.5, b"result")
        resumed = queue_for(store, items)
        assert resumed.publish(items[1:]) == 0
        assert resumed.snapshot()[0].result == b"result"

    def test_publishing_drops_only_finished_sweeps(self, store):
        finished, stalled = items_for(2, sweep=1), items_for(2, sweep=2)
        q_finished = queue_for(store, finished)
        q_finished.publish(finished)
        while (item := q_finished.claim("w0", lease=60.0)) is not None:
            q_finished.ack(item.item_id, 0.1, b"result")
            q_finished.clear_result(item.item_id)
        q_stalled = queue_for(store, stalled)
        q_stalled.publish(stalled)
        queue_for(store, items_for(1, sweep=3)).publish(items_for(1, sweep=3))
        assert q_finished.snapshot() == {}
        assert q_stalled.counts()["pending"] == 2


class TestFingerprint:
    def test_order_insensitive_identity(self):
        batch = items_for(3)
        assert sweep_fingerprint(batch) == sweep_fingerprint(batch[::-1])

    def test_sensitive_to_keys_and_ids(self):
        base = items_for(2)
        rekeyed = [QueueItem(item_id=i.item_id, key="f" * 64,
                             label=i.label, payload=i.payload)
                   for i in base]
        assert sweep_fingerprint(base) != sweep_fingerprint(rekeyed)

    def test_insensitive_to_payload_and_label(self):
        base = items_for(2)
        relabeled = [QueueItem(item_id=i.item_id, key=i.key,
                               label="x", payload=b"other")
                     for i in base]
        assert sweep_fingerprint(base) == sweep_fingerprint(relabeled)
