"""TelemetrySession end to end: activation, artifacts, reproducibility,
schema validation and the text dashboard."""

import json
import os

import pytest

import repro
from repro.errors import ConfigurationError
from repro.obs import (
    TELEMETRY_ENV,
    TELEMETRY_INTERVAL_ENV,
    TelemetrySession,
    render_report,
    series_config,
    validate_run_dir,
)
from repro.runner import Cell, RunConfig, run_cells

from .helpers import sim_cell


def _run_session(root, jobs=1, profile=False):
    session = TelemetrySession(root, experiment="obs-e2e", interval=64,
                               profile=profile)
    cells = [Cell("obs-e2e", (i,), sim_cell, (64, 300, i)) for i in range(2)]
    with session:
        with session.phase("sweep"):
            results = run_cells(cells, RunConfig(jobs=jobs,
                                                 telemetry=session.telemetry))
    return session, results


def test_interval_validated():
    with pytest.raises(ConfigurationError):
        TelemetrySession("/tmp/x", interval=0)


def test_activation_exports_and_restores_env(tmp_path):
    assert series_config() is None
    session = TelemetrySession(tmp_path / "t", interval=32)
    session.activate()
    try:
        assert os.environ[TELEMETRY_ENV] == str(tmp_path / "t")
        assert os.environ[TELEMETRY_INTERVAL_ENV] == "32"
        assert series_config() == (tmp_path / "t", 32)
        with pytest.raises(ConfigurationError):
            session.activate()  # double activation
    finally:
        session.finish()
    assert series_config() is None
    assert TELEMETRY_ENV not in os.environ


def test_artifacts_written_and_valid(tmp_path):
    session, results = _run_session(tmp_path / "run")
    root = session.dir
    assert (root / "manifest.json").is_file()
    assert (root / "metrics.jsonl").is_file()
    assert (root / "spans.jsonl").is_file()
    series = sorted(p.name for p in (root / "series").glob("*.jsonl"))
    assert series == ["obs-e2e_0_-000.jsonl", "obs-e2e_1_-000.jsonl"]
    assert validate_run_dir(root) == []

    manifest = json.loads((root / "manifest.json").read_text())
    assert manifest["version"] == repro.__version__
    assert manifest["experiment"] == "obs-e2e"
    assert manifest["interval"] == 64
    assert manifest["cells"]["completed"] == 2
    assert manifest["artifacts"]["series"] == series
    assert [p["name"] for p in manifest["wall"]["phases"]] == ["sweep"]
    # Wall-clock facts appear under "wall" only.
    deterministic = {k: v for k, v in manifest.items() if k != "wall"}
    assert "started_utc" not in json.dumps(deterministic)


def test_two_runs_byte_identical_modulo_wall(tmp_path):
    a, _ = _run_session(tmp_path / "a")
    b, _ = _run_session(tmp_path / "b", jobs=2)  # different parallelism

    assert (a.dir / "metrics.jsonl").read_bytes() == \
        (b.dir / "metrics.jsonl").read_bytes()
    for name in ("obs-e2e_0_-000.jsonl", "obs-e2e_1_-000.jsonl"):
        assert (a.dir / "series" / name).read_bytes() == \
            (b.dir / "series" / name).read_bytes()

    def stripped_spans(root):
        from repro.obs.schema import load_jsonl
        rows = load_jsonl(root / "spans.jsonl")
        for row in rows:
            row.pop("wall")
        return rows

    assert stripped_spans(a.dir) == stripped_spans(b.dir)

    def stripped_manifest(root):
        manifest = json.loads((root / "manifest.json").read_text())
        manifest.pop("wall")
        return manifest

    assert stripped_manifest(a.dir) == stripped_manifest(b.dir)


def test_profile_captures_written(tmp_path):
    session, _ = _run_session(tmp_path / "prof", profile=True)
    profiles = sorted(p.name for p in (session.dir / "profile").glob("*.prof"))
    assert profiles == ["obs-e2e_0_.prof", "obs-e2e_1_.prof"]


def test_report_renders_all_sections(tmp_path):
    session, _ = _run_session(tmp_path / "rep")
    text = render_report(session.dir)
    assert "experiment : obs-e2e" in text
    assert f"version    : repro {repro.__version__}" in text
    assert "slowest cells" in text
    assert "clean run" in text
    assert "obs-e2e_0_-000.jsonl" in text
    assert "occupancy" in text


def test_report_on_empty_dir(tmp_path):
    assert "no telemetry artifacts" in render_report(tmp_path)


def test_obs_cli_report_and_validate(tmp_path, capsys):
    from repro.obs.__main__ import main

    session, _ = _run_session(tmp_path / "cli")
    assert main(["validate", str(session.dir)]) == 0
    assert "valid" in capsys.readouterr().out
    assert main(["report", str(session.dir)]) == 0
    assert "obs-e2e" in capsys.readouterr().out
    # Corrupt one series row: validation must fail and say where.
    series = next((session.dir / "series").glob("*.jsonl"))
    series.write_text('{"bogus": 1}\n')
    assert main(["validate", str(session.dir)]) == 1
    assert series.name in capsys.readouterr().err


def test_run_experiment_facade_records_telemetry(tmp_path):
    from repro.experiments.registry import get_experiment

    result = repro.run_experiment("fig3", scale="smoke",
                                  telemetry=tmp_path / "fig3")
    assert result is not None
    # Observation never changes the rendered figure.
    plain = repro.run_experiment("fig3", scale="smoke")
    fmt = get_experiment("fig3").format
    assert fmt(result) == fmt(plain)
    assert validate_run_dir(tmp_path / "fig3") == []
    manifest = json.loads((tmp_path / "fig3" / "manifest.json").read_text())
    assert manifest["experiment"] == "fig3"
    assert manifest["cells"]["total"] > 0
    assert TELEMETRY_ENV not in os.environ
