"""Tests for Trace containers and next-use annotation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.trace.access import Trace, annotate_next_use


def brute_force_next_use(addresses):
    n = len(addresses)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            if addresses[j] == addresses[i]:
                out.append(j)
                break
        else:
            out.append(n + i)
    return out


class TestAnnotateNextUse:
    def test_simple(self):
        assert list(annotate_next_use([1, 2, 1, 3])) == [2, 5, 6, 7]

    def test_empty(self):
        assert list(annotate_next_use([])) == []

    def test_all_unique(self):
        n = 5
        assert list(annotate_next_use(range(n))) == [n + i for i in range(n)]

    def test_sentinels_exceed_all_positions(self):
        nu = annotate_next_use([7, 7, 7])
        assert nu[0] == 1 and nu[1] == 2
        assert nu[2] >= 3

    @given(st.lists(st.integers(0, 9), max_size=200))
    @settings(max_examples=60)
    def test_property_matches_brute_force(self, addresses):
        assert list(annotate_next_use(addresses)) == \
            brute_force_next_use(addresses)

    @given(st.lists(st.integers(0, 20), max_size=100))
    @settings(max_examples=40)
    def test_property_strictly_greater_than_position(self, addresses):
        nu = annotate_next_use(addresses)
        assert all(nu[i] > i for i in range(len(addresses)))


class TestTrace:
    def test_defaults(self):
        t = Trace([1, 2, 3])
        assert len(t) == 3
        assert t[1] == 2
        assert list(t.gaps) == [1, 1, 1]
        assert t.instructions == 3

    def test_gap_length_mismatch(self):
        with pytest.raises(TraceError):
            Trace([1, 2], gaps=[1])

    def test_negative_gap_rejected(self):
        # A negative gap could cancel the others out: this trace would
        # claim 0 instructions and never reach an instruction limit.
        with pytest.raises(TraceError, match="non-negative"):
            Trace([1, 2, 3], [1, -1, 0])

    def test_zero_gaps_allowed(self):
        assert Trace([1, 2], gaps=[0, 0]).instructions == 0

    def test_footprint(self):
        assert Trace([1, 2, 1, 3]).footprint() == 3

    def test_next_use_cached(self):
        t = Trace([1, 2, 1])
        assert t.next_use is t.next_use

    def test_slice(self):
        t = Trace([1, 2, 3, 4], gaps=[10, 20, 30, 40])
        s = t.slice(1, 3)
        assert list(s.addresses) == [2, 3]
        assert list(s.gaps) == [20, 30]
        with pytest.raises(TraceError):
            t.slice(3, 1)
        with pytest.raises(TraceError):
            t.slice(0, 9)

    def test_with_offset(self):
        t = Trace([1, 2]).with_offset(100)
        assert list(t.addresses) == [101, 102]

    def test_concatenate(self):
        t = Trace([1], gaps=[5]).concatenate(Trace([2], gaps=[7]))
        assert list(t.addresses) == [1, 2]
        assert t.instructions == 12

    def test_instructions_sum(self):
        t = Trace([1, 2, 3], gaps=[3, 4, 5])
        assert t.instructions == 12
