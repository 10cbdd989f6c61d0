"""Tests for the command-line experiment runner."""

import os

import pytest

from repro.experiments.__main__ import main
from repro.experiments.registry import (
    experiment_names,
    register_experiment,
    unregister,
)
from repro.experiments.tableii import render_table_ii


def test_cli_choices_track_the_registry(capsys):
    """Every registered experiment is a CLI choice (plus "all")."""
    for name in list(experiment_names()) + ["all"]:
        with pytest.raises(SystemExit):
            main([name, "--scale", "bogus"])
        err = capsys.readouterr().err
        # The rejection is the bogus --scale, not the experiment name —
        # proving the name itself passed choice validation.
        assert "invalid choice: 'bogus'" in err
        assert f"invalid choice: '{name}'" not in err


def test_table_ii_command(capsys):
    assert main(["tableII", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "Table II" in out
    assert "32 cores" in out


def test_fig3_smoke(capsys):
    assert main(["fig3", "--scale", "smoke", "--no-cache"]) == 0
    captured = capsys.readouterr()
    assert "alpha_2" in captured.out
    # Timing and progress are stderr-only so stdout stays byte-stable.
    assert "[fig3 @ smoke:" in captured.err
    assert "[fig3 @ smoke:" not in captured.out


def test_fig5_smoke(capsys):
    assert main(["fig5", "--scale", "smoke", "--no-cache"]) == 0
    assert "Figure 5" in capsys.readouterr().out


def test_fig5_smoke_parallel_cached(capsys, tmp_path):
    argv = ["fig5", "--scale", "smoke", "--jobs", "2",
            "--store", f"local:{tmp_path}"]
    assert main(argv) == 0
    first = capsys.readouterr()
    assert "cached" not in first.err
    assert main(argv) == 0
    second = capsys.readouterr()
    assert second.out == first.out
    assert "cached" in second.err


def test_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_rejects_unknown_scale():
    with pytest.raises(SystemExit):
        main(["fig3", "--scale", "huge"])


def test_configuration_error_is_one_clean_line(capsys):
    """A bad config exits 2 with a single-line error, not a traceback."""

    class BrokenConfig:
        @classmethod
        def smoke(cls):
            from repro.errors import ConfigurationError
            raise ConfigurationError("num_partitions must be positive")

        scaled = paper = smoke

    register_experiment(name="figBroken", config_cls=BrokenConfig,
                        reduce=lambda config, results: results,
                        format=str)(lambda config: [])
    try:
        assert main(["figBroken", "--scale", "smoke", "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == (
            "error: figBroken: num_partitions must be positive")
        assert "Traceback" not in captured.err
    finally:
        unregister("figBroken")


@pytest.mark.parametrize("flags", [["--telemetry-interval", "0"],
                                   ["--retries", "-1"],
                                   ["--store-retries", "-1"]])
def test_invalid_run_flags_are_one_clean_line(capsys, tmp_path, flags):
    """Invalid telemetry and resilience flags exit 2 with a single-line
    error, not a traceback."""
    assert main(["fig3", "--scale", "smoke", "--no-cache",
                 f"--telemetry={tmp_path}", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: fig3: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert "REPRO_TELEMETRY" not in os.environ


def test_render_table_ii_rows():
    text = render_table_ii()
    for key in ("Cores", "L1 $s", "L2 $", "MCU"):
        assert key in text
