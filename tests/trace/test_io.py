"""Tests for trace persistence."""

import pytest

from repro.errors import TraceError
from repro.trace.access import Trace
from repro.trace.io import load_trace, save_trace
from repro.trace.spec import benchmark_trace


def test_round_trip(tmp_path):
    original = Trace([5, 9, 5, 2], gaps=[10, 20, 30, 40], name="unit")
    path = save_trace(original, tmp_path / "t")
    assert path.suffix == ".npz"
    loaded = load_trace(path)
    assert list(loaded.addresses) == list(original.addresses)
    assert list(loaded.gaps) == list(original.gaps)
    assert loaded.name == "unit"


def test_round_trip_benchmark_trace(tmp_path):
    original = benchmark_trace("mcf", 2_000, seed=3)
    loaded = load_trace(save_trace(original, tmp_path / "mcf.npz"))
    assert list(loaded.addresses) == list(original.addresses)
    assert loaded.instructions == original.instructions
    assert loaded.name == "mcf"


def test_missing_file(tmp_path):
    with pytest.raises(TraceError):
        load_trace(tmp_path / "absent.npz")


def test_wrong_archive(tmp_path):
    import numpy as np
    path = tmp_path / "bogus.npz"
    np.savez(path, foo=np.arange(3))
    with pytest.raises(TraceError) as excinfo:
        load_trace(path)
    # The original KeyError is chained, not swallowed: the message names
    # the missing array and the cause survives for debugging.
    assert "missing" in str(excinfo.value)
    assert isinstance(excinfo.value.__cause__, KeyError)


def test_large_addresses_preserved(tmp_path):
    original = Trace([2**40 + 7, 2**45], name="big")
    loaded = load_trace(save_trace(original, tmp_path / "big"))
    assert list(loaded.addresses) == [2**40 + 7, 2**45]


def test_negative_gap_in_archive_rejected(tmp_path):
    import numpy as np
    path = tmp_path / "negative.npz"
    np.savez(path, addresses=np.array([1, 2], dtype=np.int64),
             gaps=np.array([3, -3], dtype=np.int64),
             name=np.frombuffer(b"neg", dtype=np.uint8))
    with pytest.raises(TraceError, match="non-negative"):
        load_trace(path)
