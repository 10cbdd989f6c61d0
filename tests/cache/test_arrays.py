"""Tests for the cache array organizations."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cache.arrays as arrays_module
from repro.cache.arrays import (
    INVALID,
    DirectMappedArray,
    FullyAssociativeArray,
    RandomCandidatesArray,
    SetAssociativeArray,
    SkewAssociativeArray,
    ZCacheArray,
)
from repro.errors import ConfigurationError


def fill_and_check(array, addresses):
    """Place each address at one of its candidates (evicting as needed) and
    verify lookup consistency throughout."""
    for addr in addresses:
        if array.lookup(addr) is not None:
            continue
        cands = array.candidates(addr)
        victim = next((c for c in cands if array.addr_at(c) == INVALID),
                      cands[0])
        array.evict(victim)
        array.place(addr, victim)
        assert array.lookup(addr) is not None
        idx = array.lookup(addr)
        assert array.addr_at(idx) == addr


class TestGeometryValidation:
    def test_nonpositive_lines(self):
        with pytest.raises(ConfigurationError):
            SetAssociativeArray(0, 4)

    def test_lines_not_multiple_of_ways(self):
        with pytest.raises(ConfigurationError):
            SetAssociativeArray(130, 16)

    def test_sets_not_power_of_two(self):
        with pytest.raises(ConfigurationError):
            SetAssociativeArray(48, 4)  # 12 sets

    def test_random_candidates_exceeds_lines(self):
        with pytest.raises(ConfigurationError):
            RandomCandidatesArray(8, 16)

    def test_zcache_candidates_below_ways(self):
        with pytest.raises(ConfigurationError):
            ZCacheArray(64, 4, 2)


class TestSetAssociativeArray:
    def test_candidates_are_the_set(self):
        a = SetAssociativeArray(64, 4)
        cands = a.candidates(1234)
        assert len(cands) == 4
        base = min(cands)
        # candidates() returns an index Sequence (a range here), not a list.
        assert list(cands) == list(range(base, base + 4))
        assert base % 4 == 0

    def test_candidate_count_equals_ways(self):
        a = SetAssociativeArray(64, 4)
        assert a.candidate_count == 4

    def test_same_set_same_candidates(self):
        a = SetAssociativeArray(64, 4)
        assert a.candidates(77) == a.candidates(77)

    def test_place_and_lookup(self):
        a = SetAssociativeArray(64, 4)
        fill_and_check(a, range(200))
        assert a.resident_count() <= 64

    def test_evict_clears(self):
        a = SetAssociativeArray(64, 4)
        c = a.candidates(5)[0]
        a.place(5, c)
        assert a.evict(c) == 5
        assert a.lookup(5) is None
        assert a.addr_at(c) == INVALID
        # Double evict is a no-op returning INVALID.
        assert a.evict(c) == INVALID

    def test_place_into_occupied_slot_rejected(self):
        a = SetAssociativeArray(64, 4)
        c = a.candidates(5)[0]
        a.place(5, c)
        with pytest.raises(ConfigurationError):
            a.place(6, c)


class TestDirectMapped:
    def test_single_candidate(self):
        a = DirectMappedArray(64)
        assert len(a.candidates(99)) == 1
        assert a.candidate_count == 1


class TestFullyAssociative:
    def test_free_slots_first(self):
        a = FullyAssociativeArray(8)
        seen = set()
        for addr in range(8):
            cands = a.candidates(addr)
            assert len(cands) == 1
            assert a.addr_at(cands[0]) == INVALID
            a.place(addr, cands[0])
            seen.add(cands[0])
        assert seen == set(range(8))
        assert a.free_slot() is None

    def test_full_gives_all_lines(self):
        a = FullyAssociativeArray(4)
        for addr in range(4):
            a.place(addr, a.free_slot())
        assert sorted(a.candidates(100)) == [0, 1, 2, 3]

    def test_evict_returns_slot_to_free_list(self):
        a = FullyAssociativeArray(4)
        for addr in range(4):
            a.place(addr, a.free_slot())
        a.evict(2)
        assert a.free_slot() == 2


class TestRandomCandidates:
    def test_distinct_candidates(self):
        a = RandomCandidatesArray(128, 16, seed=3)
        for _ in range(50):
            cands = a.candidates(0)
            assert len(cands) == 16
            assert len(set(cands)) == 16
            assert all(0 <= c < 128 for c in cands)

    def test_seed_determinism(self):
        a = RandomCandidatesArray(128, 8, seed=5)
        b = RandomCandidatesArray(128, 8, seed=5)
        assert [a.candidates(0) for _ in range(10)] == \
               [b.candidates(0) for _ in range(10)]

    def test_uniform_coverage(self):
        a = RandomCandidatesArray(64, 8, seed=1)
        seen = set()
        for _ in range(200):
            seen.update(a.candidates(0))
        assert seen == set(range(64))

    def test_any_slot_holds_any_address(self):
        a = RandomCandidatesArray(32, 4, seed=2)
        a.place(999, 17)
        assert a.lookup(999) == 17

    @pytest.mark.parametrize("num_lines,want,seed", [
        (4096, 16, 0),        # randrange draws 13 bits: half rejected
        (3000, 16, 3),        # not a power of two
        (2048, 32, 1),        # about one call in five repeats a draw
        (16, 16, 2),          # every call is a permutation
        (1, 1, 0),
        (4096, 16, 2**40 + 7),
    ])
    def test_stream_matches_randrange(self, num_lines, want, seed):
        """Each call returns the first ``want`` distinct values of
        ``randrange(num_lines)`` drawn from ``random.Random(seed)``,
        continuing the stream where the previous call stopped."""
        a = RandomCandidatesArray(num_lines, want, seed=seed)
        rng = random.Random(seed)
        # Enough calls to cross several buffer refills at every point.
        for call in range(max(1000, 20_000 // want)):
            expected = []
            while len(expected) < want:
                idx = rng.randrange(num_lines)
                if idx not in expected:
                    expected.append(idx)
            assert list(a.candidates(call)) == expected, call

    def test_rejects_lines_beyond_one_word(self, monkeypatch):
        """2**32 lines would need two Mersenne Twister words per draw; the
        array refuses the geometry before allocating its line table."""
        def no_table(num_lines):
            raise AssertionError(f"allocated a {num_lines}-line table")
        monkeypatch.setattr(arrays_module, "LineTable", no_table)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError):
                RandomCandidatesArray(2**32, 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestSkewAssociative:
    def test_one_candidate_per_way(self):
        a = SkewAssociativeArray(64, 4)
        cands = a.candidates(123)
        assert len(cands) == 4
        # One candidate in each way's region.
        regions = sorted(c // a.num_sets for c in cands)
        assert regions == [0, 1, 2, 3]

    def test_different_hashes_per_way(self):
        a = SkewAssociativeArray(256, 4)
        # With per-way hashing, set indices within ways should differ for
        # most addresses (unlike a set-associative cache).
        differing = 0
        for addr in range(100):
            offsets = {c % a.num_sets for c in a.candidates(addr)}
            if len(offsets) > 1:
                differing += 1
        assert differing > 50

    def test_fill(self):
        a = SkewAssociativeArray(64, 4)
        fill_and_check(a, range(150))


class TestZCache:
    def test_walk_yields_requested_candidates(self):
        a = ZCacheArray(64, 4, 16, hash_seed=1)
        # Empty cache: walk cannot expand beyond first level.
        assert len(a.candidates(1)) == 4
        fill_and_check(a, range(64))
        cands = a.candidates(1000)
        assert len(cands) == 16
        assert len(set(cands)) == 16

    def test_relocations_keep_lookup_consistent(self):
        rng = random.Random(0)
        a = ZCacheArray(64, 4, 16, hash_seed=2)
        resident = {}
        for step in range(500):
            addr = rng.randrange(200)
            if a.lookup(addr) is not None:
                continue
            cands = a.candidates(addr)
            victim = next((c for c in cands if a.addr_at(c) == INVALID),
                          cands[rng.randrange(len(cands))])
            old = a.evict(victim)
            resident.pop(old, None)
            moves = a.place(addr, victim)
            resident[addr] = True
            # Every resident address must still be findable and stored
            # in a slot it hashes to in some way.
            for r in resident:
                idx = a.lookup(r)
                assert idx is not None
                assert idx in a._slots_for(r)
            for src, dst in moves:
                assert a.addr_at(src) in (INVALID,) or True

    def test_relocation_moves_reported_in_order(self):
        a = ZCacheArray(64, 4, 16, hash_seed=3)
        fill_and_check(a, range(64))
        addr = 5000
        cands = a.candidates(addr)
        # Choose the deepest candidate to force relocations.
        victim = cands[-1]
        a.evict(victim)
        moves = a.place(addr, victim)
        idx = a.lookup(addr)
        assert idx in a._slots_for(addr)
        if moves:
            # The first move fills the victim slot.
            assert moves[0][1] == victim

    def test_direct_place_requires_first_level_slot(self):
        a = ZCacheArray(64, 4, 16)
        with pytest.raises(ConfigurationError):
            bad_slot = (a._slots_for(7)[0] + 1) % 64
            while bad_slot in a._slots_for(7):
                bad_slot = (bad_slot + 1) % 64
            a.place(7, bad_slot)


@pytest.mark.parametrize("factory", [
    lambda: SetAssociativeArray(64, 4),
    lambda: SkewAssociativeArray(64, 4),
    lambda: ZCacheArray(64, 4, 8),
    lambda: RandomCandidatesArray(64, 8, seed=0),
    lambda: FullyAssociativeArray(64),
])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_resident_count_matches_occupancy(factory, data):
    addresses = data.draw(st.lists(st.integers(0, 300), max_size=120))
    a = factory()
    fill_and_check(a, addresses)
    occupied = sum(1 for i in range(a.num_lines) if a.addr_at(i) != INVALID)
    assert occupied == a.resident_count()
