"""Chaos runs: a sweep against a broken store fails loudly.

The acceptance bar for store errors: a fig3 sweep whose store cannot
be written fails with the store's own error at any ``--jobs`` — never
mistaken for a dead worker — and leaves no worker behind.  (Sweeps
under cell faults, byte for byte: ``tests/runner/test_resilience.py``.)
"""

from __future__ import annotations

import errno
import multiprocessing

import pytest

from repro.experiments.__main__ import main
from repro.store import CacheCorruptionWarning


class TestStoreFaultChaos:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_permanent_put_error_fails_the_sweep(self, tmp_path, jobs):
        """A store root that is a regular file: every hit read is a
        warned miss, and the first result write raises
        ``NotADirectoryError``, which fails the sweep as it is."""
        root = tmp_path / "not-a-directory"
        root.write_bytes(b"")
        with pytest.warns(CacheCorruptionWarning,
                          match=r"is unreadable \(NotADirectoryError"):
            with pytest.raises(NotADirectoryError) as excinfo:
                main(["fig3", "--store", f"local:{root}", "--jobs", jobs])
        assert excinfo.value.errno == errno.ENOTDIR
        assert multiprocessing.active_children() == []
        assert root.read_bytes() == b""
