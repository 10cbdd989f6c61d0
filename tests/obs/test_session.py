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
    canonical,
    completeness,
    load_trace_rows,
    render_report,
    report_data,
    series_config,
    stitch,
    validate_run_dir,
)
from repro.runner import Cell, RunConfig, run_cells
from repro.store import LocalFileStore

from .helpers import broken_cell, flaky_cell, sim_cell


def _run_session(root, jobs=1, profile=False, cells=None, **config):
    session = TelemetrySession(root, experiment="obs-e2e", interval=64,
                               profile=profile)
    if cells is None:
        cells = [Cell("obs-e2e", (i,), sim_cell, (64, 300, i))
                 for i in range(2)]
    with session:
        with session.phase("sweep"):
            results = run_cells(cells, RunConfig(
                jobs=jobs, telemetry=session.telemetry, **config))
    return session, results


def _stitched(root):
    tree = stitch(load_trace_rows(root))
    assert completeness(tree) == []
    return tree


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
    assert sorted(p.name for p in root.iterdir()) == \
        ["manifest.json", "series", "traces"]
    series = sorted(p.name for p in (root / "series").glob("*.jsonl"))
    assert series == ["obs-e2e_0_-000.jsonl", "obs-e2e_1_-000.jsonl"]
    traces = sorted(p.name for p in (root / "traces").iterdir())
    assert traces == ["trace.jsonl"]
    assert validate_run_dir(root) == []
    tree = _stitched(root)
    assert [(r["kind"], r["name"]) for r in tree["rows"][1:]] == [
        ("cell", "obs-e2e[0]"), ("execute", "obs-e2e[0]"),
        ("cell", "obs-e2e[1]"), ("execute", "obs-e2e[1]")]

    manifest = json.loads((root / "manifest.json").read_text())
    assert manifest["version"] == repro.__version__
    assert manifest["experiment"] == "obs-e2e"
    assert manifest["interval"] == 64
    assert manifest["cells"]["completed"] == 2
    assert manifest["artifacts"] == {"series": series, "traces": traces}
    assert [p["name"] for p in manifest["wall"]["phases"]] == ["sweep"]
    # Wall-clock facts appear under "wall" only.
    deterministic = {k: v for k, v in manifest.items() if k != "wall"}
    assert "started_utc" not in json.dumps(deterministic)


def test_two_runs_byte_identical_modulo_wall(tmp_path):
    a, _ = _run_session(tmp_path / "a")
    b, _ = _run_session(tmp_path / "b", jobs=2)  # different parallelism

    for name in ("obs-e2e_0_-000.jsonl", "obs-e2e_1_-000.jsonl"):
        assert (a.dir / "series" / name).read_bytes() == \
            (b.dir / "series" / name).read_bytes()
    assert canonical(_stitched(a.dir)) == canonical(_stitched(b.dir))

    def stripped_manifest(root):
        manifest = json.loads((root / "manifest.json").read_text())
        manifest.pop("wall")
        return manifest

    assert stripped_manifest(a.dir) == stripped_manifest(b.dir)


def test_reused_dir_keeps_nothing_of_the_earlier_run(tmp_path):
    """A rerun into the same directory lists and plots only what it
    recorded itself: here every cell is cached, so nothing at all."""
    store = LocalFileStore(tmp_path / "store")
    first, _ = _run_session(tmp_path / "run", profile=True, store=store)
    assert list((first.dir / "profile").glob("*.prof"))
    stale = first.dir / "traces" / "stale.jsonl"
    stale.write_text("")

    again, _ = _run_session(tmp_path / "run", profile=True, store=store)
    manifest = json.loads((again.dir / "manifest.json").read_text())
    assert manifest["cells"]["cached"] == 2
    assert manifest["artifacts"]["series"] == []
    assert not stale.exists()
    assert not (again.dir / "profile").exists()
    assert validate_run_dir(again.dir) == []
    assert report_data(again.dir)["series"] == []
    assert "per-partition series" not in render_report(again.dir)


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


def test_report_faults_come_from_the_trace(tmp_path):
    cells = [Cell("obs-e2e", ("flaky",), flaky_cell,
                  (str(tmp_path), "s", 42)),
             Cell("obs-e2e", ("bad",), broken_cell, ("boom",))]
    session, _ = _run_session(tmp_path / "faulty", cells=cells, retries=1,
                              backoff_base=0.001, keep_going=True)
    data = report_data(session.dir)
    assert data["faults"] == {
        "retries": 2, "losses": 0, "failed_cells": 1,
        "by_error": {"ValueError": 3},
        "failed": [{"cell": "obs-e2e[bad]", "attempts": 2}]}
    slowest = {c["cell"]: c for c in data["slowest"]}
    assert (slowest["obs-e2e[flaky]"]["status"],
            slowest["obs-e2e[flaky]"]["retries"]) == ("ok", 1)
    assert (slowest["obs-e2e[bad]"]["status"],
            slowest["obs-e2e[bad]"]["retries"]) == ("failed", 1)
    text = render_report(session.dir)
    assert "retries=2  pool-losses=0  failed-cells=1" in text
    assert "ValueError: 3 failed attempt(s)" in text
    assert "FAILED obs-e2e[bad] after 2 attempt(s)" in text


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


def test_run_experiment_facade_traces_the_sweep(tmp_path):
    repro.run_experiment("fig3", scale="smoke", telemetry=tmp_path / "fig3")
    assert validate_run_dir(tmp_path / "fig3") == []
    tree = _stitched(tmp_path / "fig3")
    assert tree["root"]["name"] == "fig3"
    manifest = json.loads((tmp_path / "fig3" / "manifest.json").read_text())
    cells = [r for r in tree["rows"] if r["kind"] == "cell"]
    assert len(cells) == manifest["cells"]["total"]
    assert manifest["artifacts"]["traces"] == ["trace.jsonl"]
