"""Parallel runs must be byte-identical to sequential runs.

The ISSUE acceptance criterion: figure output for ``--jobs 2`` matches
``--jobs 1`` exactly, and a fully cached rerun reproduces it again.
"""

from __future__ import annotations

import pytest

from repro.experiments.__main__ import main


def _stdout(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("fig", ["fig3", "fig5"])
def test_jobs2_byte_identical_to_jobs1(fig, capsys, tmp_path):
    base = [fig, "--scale", "smoke", "--store", f"local:{tmp_path}"]
    sequential = _stdout(capsys, base + ["--jobs", "1", "--force"])
    parallel = _stdout(capsys, base + ["--jobs", "2", "--force"])
    assert parallel == sequential

    # Third run is served entirely from the cache and must still match.
    cached = _stdout(capsys, base + ["--jobs", "2"])
    assert cached == sequential


def test_no_cache_matches_cached(capsys, tmp_path):
    base = ["fig5", "--scale", "smoke"]
    uncached = _stdout(capsys, base + ["--no-cache"])
    cached = _stdout(capsys, base + ["--store", f"local:{tmp_path}"])
    assert uncached == cached
