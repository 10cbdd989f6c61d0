"""Store-conformance suite: the store's contract, end to end.

Checksummed round-trips, corruption quarantine, concurrent put/get
from separate processes, a purge that counts live and quarantined
entries separately, and URL resolution.
"""

from __future__ import annotations

import hashlib
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.errors import ConfigurationError
from repro.store import (
    STORE_MAGIC,
    CacheCorruptionWarning,
    LocalFileStore,
    open_store,
    resolve_store,
)

from .helpers import get_many, key_of, put_many


@pytest.fixture
def store(tmp_path):
    return LocalFileStore(tmp_path / "store")


class TestRoundTrip:
    def test_miss_then_hit(self, store):
        key = key_of(1)
        assert store.get(key) == (False, None)
        assert key not in store
        store.put(key, {"x": [1, 2, 3]})
        assert key in store
        assert store.get(key) == (True, {"x": [1, 2, 3]})
        assert len(store) == 1

    def test_overwrite_replaces(self, store):
        key = key_of(2)
        store.put(key, "old")
        store.put(key, "new")
        assert store.get(key) == (True, "new")
        assert len(store) == 1

    def test_entry_format_is_checksummed_v2(self, store):
        """Every entry is the exact v2 blob: magic + sha256 + pickle."""
        key = key_of(3)
        store.put(key, [1, 2, 3])
        blob = store._read(key)
        assert blob.startswith(STORE_MAGIC)
        digest, _, payload = blob[len(STORE_MAGIC):].partition(b"\n")
        assert hashlib.sha256(payload).hexdigest().encode() == digest
        assert pickle.loads(payload) == [1, 2, 3]

    def test_missing_entry_is_a_silent_miss(self, store, recwarn):
        assert store.get(key_of(4)) == (False, None)
        assert not [w for w in recwarn.list
                    if issubclass(w.category, CacheCorruptionWarning)]

    def test_unreadable_entry_warns_and_misses(self, store):
        """An entry path that exists but cannot be read (here: a
        directory) is a warned miss, left in place for inspection."""
        key = key_of(11)
        store.path_for(key).mkdir(parents=True)
        with pytest.warns(CacheCorruptionWarning, match="is unreadable"):
            assert store.get(key) == (False, None)
        assert store.path_for(key).is_dir()
        assert store.stats().misses == 1


class TestCorruptionQuarantine:
    def test_garbage_warns_quarantines_and_recovers(self, store):
        key = key_of(5)
        store.write_raw(key, b"\x80truncated garbage")
        with pytest.warns(CacheCorruptionWarning, match="quarantined"):
            assert store.get(key) == (False, None)
        assert len(store) == 0
        assert store.quarantined_count() == 1
        # The quarantined entry does not shadow a fresh write.
        store.put(key, "value")
        assert store.get(key) == (True, "value")

    def test_checksum_mismatch_is_detected(self, store):
        key = key_of(6)
        store.put(key, [1, 2, 3])
        blob = bytearray(store._read(key))
        blob[-1] ^= 0xFF  # flip one payload bit; the header stays valid
        store.write_raw(key, bytes(blob))
        with pytest.warns(CacheCorruptionWarning, match="checksum mismatch"):
            assert store.get(key) == (False, None)
        assert store.quarantined_count() == 1

    def test_unpicklable_payload_is_quarantined(self, store):
        payload = b"definitely not a pickle"
        digest = hashlib.sha256(payload).hexdigest().encode("ascii")
        key = key_of(7)
        store.write_raw(key, STORE_MAGIC + digest + b"\n" + payload)
        with pytest.warns(CacheCorruptionWarning, match="unpickle"):
            assert store.get(key) == (False, None)
        assert store.quarantined_count() == 1


class TestPurge:
    def test_counts_live_and_quarantined_separately(self, store):
        for n in range(3):
            store.put(key_of(n), n)
        store.write_raw(key_of(9), b"garbage")
        with pytest.warns(CacheCorruptionWarning):
            store.get(key_of(9))
        result = store.purge()
        assert result == (3, 1)
        assert result.entries == 3
        assert result.quarantined == 1
        assert result.total == 4
        assert len(store) == 0
        assert store.quarantined_count() == 0

    def test_empty_store_purges_to_zero(self, store):
        assert store.purge() == (0, 0)


class TestConcurrency:
    def test_concurrent_puts_from_processes(self, store):
        """Two processes writing disjoint key ranges; nothing is lost."""
        batches = [[(key_of(100 + n), n) for n in range(8)],
                   [(key_of(200 + n), n) for n in range(8)]]
        with ProcessPoolExecutor(max_workers=2) as ex:
            counts = list(ex.map(put_many, [store, store], batches))
        assert counts == [8, 8]
        assert len(store) == 16
        for batch in batches:
            for key, value in batch:
                assert store.get(key) == (True, value)

    def test_concurrent_gets_see_prior_writes(self, store):
        keys = [key_of(300 + n) for n in range(6)]
        for n, key in enumerate(keys):
            store.put(key, n * n)
        with ProcessPoolExecutor(max_workers=2) as ex:
            results = list(ex.map(get_many, [store, store], [keys, keys]))
        assert results[0] == results[1] == [
            (True, n * n) for n in range(6)]


class TestStatsAndIdentity:
    def test_stats_track_session_traffic(self, store):
        key = key_of(8)
        store.get(key)                      # miss
        store.put(key, 1)                   # put
        store.get(key)                      # hit
        store.write_raw(key_of(9), b"bad")
        with pytest.warns(CacheCorruptionWarning):
            store.get(key_of(9))            # miss + quarantine
        stats = store.stats()
        assert stats.location == store.url
        assert stats.entries == 1
        assert stats.quarantined == 1
        assert (stats.hits, stats.misses) == (1, 2)
        assert (stats.puts, stats.quarantines) == (1, 1)

    def test_url_reopens_the_same_store(self, store):
        store.put(key_of(10), "shared")
        reopened = open_store(store.url)
        assert reopened.get(key_of(10)) == (True, "shared")

    def test_aux_dir_is_created_and_stable(self, store):
        path = store.aux_dir("failures")
        assert path.is_dir()
        assert store.aux_dir("failures") == path


class TestOpenStore:
    def test_bare_path_opens_local(self, tmp_path):
        store = open_store(tmp_path / "cache")
        assert isinstance(store, LocalFileStore)
        assert store.root == tmp_path / "cache"

    def test_scheme_urls_select_backends(self, tmp_path):
        """``local:`` is the one scheme; the removed ``sqlite:`` is
        refused like any other unknown scheme, creating nothing."""
        store = open_store(f"local:{tmp_path}/a")
        assert isinstance(store, LocalFileStore)
        assert store.root == tmp_path / "a"
        with pytest.raises(ConfigurationError, match="unknown store scheme"):
            open_store(f"sqlite:{tmp_path}/b.sqlite")
        assert list(tmp_path.iterdir()) == []

    def test_instance_passes_through(self, tmp_path):
        store = LocalFileStore(tmp_path)
        assert open_store(store) is store
        assert resolve_store(store) is store

    def test_none_resolves_to_none(self):
        assert resolve_store(None) is None

    def test_unknown_scheme_lists_backends(self, tmp_path):
        with pytest.raises(ConfigurationError, match="local"):
            open_store(f"redis:{tmp_path}")

    def test_missing_path_after_scheme_raises(self):
        with pytest.raises(ConfigurationError, match="no path"):
            open_store("local:")

    def test_windows_drive_letter_is_a_path(self, tmp_path, monkeypatch):
        """A one-letter 'scheme' is a drive letter, not a URL scheme."""
        monkeypatch.chdir(tmp_path)
        store = open_store("c:relative-ish")
        assert isinstance(store, LocalFileStore)
