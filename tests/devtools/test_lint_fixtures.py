"""Every rule must trip on its known-bad fixture and stay silent on the
known-good one, and the CLI exit codes must hold — including exit 0 over
the real ``src/repro`` tree (the cache-soundness gate CI enforces)."""

import json
from pathlib import Path

import pytest

import repro
from repro.devtools.lint import Checker, main

FIXTURES = Path(__file__).parent / "fixtures"
PACKAGE_DIR = Path(repro.__file__).parent

ALL_RULES = ["DET001", "DET002", "DET004", "COR001",
             "CON001", "TNT001", "API001"]

#: Findings each known-bad fixture must produce (lower bound, so adding
#: detection breadth never breaks the suite).
MIN_BAD_FINDINGS = {
    "DET001": 8,
    "DET002": 6,
    "DET004": 6,
    "COR001": 4,
    "CON001": 3,
    "TNT001": 3,
    "API001": 2,
}

#: Fixtures whose full-ruleset run needs a specific virtual location.
#: DET002's good fixture *demonstrates* sanctioned monotonic timing,
#: which DET004 bans inside the simulation substrate — pinning it to a
#: runner path keeps DET004's include gate closed, exactly as it is for
#: the real timing code in ``repro/runner/``.
VIRTUAL_PATHS = {
    "det002_good.py": "repro/runner/det002_good.py",
}


def lint_fixture(name: str, virtual: str):
    """Lint a fixture under a location-independent virtual path.

    Using a virtual path outside any ``repro`` package directory keeps
    include-scoped rules (COR001, DET004) active no matter where the
    repository is checked out.
    """
    source = (FIXTURES / name).read_text()
    return Checker().check_source(source, path=virtual)


@pytest.mark.parametrize("rule_id", ALL_RULES)
def test_bad_fixture_trips_rule(rule_id):
    name = f"{rule_id.lower()}_bad.py"
    findings = lint_fixture(name, f"fixtures/{name}")
    fired = [f for f in findings if f.rule_id == rule_id]
    assert len(fired) >= MIN_BAD_FINDINGS[rule_id], (
        f"{name} must trip {rule_id} at least "
        f"{MIN_BAD_FINDINGS[rule_id]} times, got {len(fired)}: {findings}")


@pytest.mark.parametrize("rule_id", ALL_RULES)
def test_good_fixture_is_clean(rule_id):
    name = f"{rule_id.lower()}_good.py"
    virtual = VIRTUAL_PATHS.get(name, f"fixtures/{name}")
    findings = lint_fixture(name, virtual)
    assert findings == [], f"{name} must produce no findings: {findings}"


def test_det002_sanctions_wall_clock_only_in_the_cli():
    """The CLI's wall-clock progress stamps are allow-listed by *path*,
    and nothing else is: identical code in the coordinator or any store
    module — the backends, the retry layer, and especially the
    fault-injection harness, whose schedules must stay pure functions
    of call counts and seeds — still trips DET002, so both stay inside
    the determinism gate."""
    sanctioned = lint_fixture("det002_wall_clock.py",
                              "repro/experiments/__main__.py")
    assert [f for f in sanctioned if f.rule_id == "DET002"] == []
    for virtual in ("repro/runner/pool.py", "repro/store/local.py",
                    "repro/store/base.py", "repro/store/faults.py"):
        findings = lint_fixture("det002_wall_clock.py", virtual)
        fired = [f for f in findings if f.rule_id == "DET002"]
        assert len(fired) == 3, (
            f"all three time.time() reads must trip DET002 under "
            f"{virtual}, got {fired}")


def test_det004_include_gate_is_the_simulation_substrate():
    """DET004 judges files by path: the same host-clock code fires under
    the simulation substrate (``repro/{cache,core,sim}/``) and is
    DET004-free under the runner, which may time the simulation from
    the outside.  The known-good shape lints clean everywhere DET004
    applies, under the full ruleset."""
    for virtual in ("repro/sim/engine.py", "repro/cache/cache.py",
                    "repro/core/futility.py"):
        dirty = lint_fixture("det004_bad.py", virtual)
        fired = [f for f in dirty if f.rule_id == "DET004"]
        assert len(fired) >= MIN_BAD_FINDINGS["DET004"], (
            f"every host-clock read must fire under {virtual}: {dirty}")
        assert lint_fixture("det004_good.py", virtual) == []
    elsewhere = lint_fixture("det004_bad.py", "repro/runner/pool.py")
    assert [f for f in elsewhere if f.rule_id == "DET004"] == []


def test_suppressed_fixture_is_clean():
    findings = lint_fixture("suppressed.py", "fixtures/suppressed.py")
    assert findings == []


def test_suppressed_fixture_is_noisy_without_suppressions():
    source = (FIXTURES / "suppressed.py").read_text()
    checker = Checker(respect_suppressions=False)
    findings = checker.check_source(source, path="fixtures/suppressed.py")
    assert {f.rule_id for f in findings} >= {
        "DET001", "DET002", "DET004", "COR001"}


def test_project_phase_respects_suppressions():
    findings = lint_fixture("suppressed_project.py",
                            "fixtures/suppressed_project.py")
    assert findings == []


def test_project_phase_is_noisy_without_suppressions():
    source = (FIXTURES / "suppressed_project.py").read_text()
    checker = Checker(respect_suppressions=False)
    findings = checker.check_source(
        source, path="fixtures/suppressed_project.py")
    assert {f.rule_id for f in findings} >= {"CON001", "TNT001"}


# ------------------------------------------------- whole-program only --


def _fixture(name):
    return (FIXTURES / name).read_text()


def test_tnt001_catches_cross_module_clock_leak():
    """The acceptance pair: each half is clean per-file, but linting
    them as one project traces ``time.time()`` through
    ``backoff_stamp``'s return into the cache-key hash two modules
    away."""
    source = _fixture("tnt001_clock_source.py")
    sink = _fixture("tnt001_clock_sink.py")
    src_path = "repro/experiments/__main__.py"
    sink_path = "repro/runner/stamped.py"

    assert Checker().check_sources([(src_path, source)]) == []
    assert Checker().check_sources([(sink_path, sink)]) == []

    findings = Checker().check_sources([(src_path, source),
                                        (sink_path, sink)])
    fired = [f for f in findings if f.rule_id == "TNT001"]
    assert fired, f"whole-program pass must flag the leak: {findings}"
    assert all(f.path == sink_path for f in fired)
    assert any("backoff_stamp" in f.message for f in fired)


def test_tnt001_guards_trace_id_derivation():
    """Span identity is a reproducibility surface: trace/span IDs must
    be pure hashes of sweep digest + cell key + attempt, or the
    stitcher's duplicate-merging and the canonical projection's
    byte-identity across ``--jobs`` both break.  A wall-clock value
    that reaches ``span_id`` — even laundered through another module's
    sanctioned clock stamp and an f-string — fires the trace-id
    derivation sink."""
    source = _fixture("tnt001_trace_source.py")
    sink = _fixture("tnt001_trace_sink.py")
    src_path = "repro/experiments/__main__.py"
    sink_path = "repro/runner/traced.py"

    # Each half is clean on its own (the source's clock read is the
    # CLI's sanctioned progress stamp).
    assert Checker().check_sources([(src_path, source)]) == []
    assert Checker().check_sources([(sink_path, sink)]) == []

    findings = Checker().check_sources([(src_path, source),
                                        (sink_path, sink)])
    fired = [f for f in findings if f.rule_id == "TNT001"]
    assert fired, f"whole-program pass must flag the leak: {findings}"
    assert all(f.path == sink_path for f in fired)
    derived = [f for f in fired if "trace-id derivation" in f.message]
    # Both the span ID and the sweep digest behind the trace ID.
    assert len({f.line for f in derived}) == 2, derived
    assert any("claim_stamp" in f.message for f in fired)


# ---------------------------------------------------------------- CLI --


def test_cli_exits_nonzero_on_each_bad_fixture(capsys):
    for rule_id in ALL_RULES:
        path = FIXTURES / f"{rule_id.lower()}_bad.py"
        code = main(["--select", rule_id, str(path)])
        out = capsys.readouterr()
        assert code == 1, f"{path.name} must fail the build"
        assert rule_id in out.out


def test_cli_exits_zero_on_good_fixtures(capsys):
    for rule_id in ALL_RULES:
        path = FIXTURES / f"{rule_id.lower()}_good.py"
        assert main(["--select", rule_id, str(path)]) == 0
        assert capsys.readouterr().out == ""


def test_cli_src_tree_is_clean(capsys):
    """The acceptance gate: reprolint over the shipped package exits 0."""
    assert main([str(PACKAGE_DIR)]) == 0
    assert capsys.readouterr().out == ""


def test_cli_json_format(capsys):
    path = FIXTURES / "cor001_bad.py"
    assert main(["--format", "json", "--select", "COR001", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload, list) and payload
    assert all(item["rule"] == "COR001" for item in payload)
    assert {"path", "line", "col", "rule", "message"} <= set(payload[0])


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ALL_RULES:
        assert rule_id in out


def test_cli_usage_errors(tmp_path, capsys):
    assert main([]) == 2  # no paths
    assert main(["--select", "NOPE01", str(FIXTURES)]) == 2
    assert main([str(tmp_path / "missing.py")]) == 2
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n")
    assert main([str(broken)]) == 2
    err = capsys.readouterr().err
    assert "syntax error" in err


def test_cli_ignore_drops_rule(capsys):
    path = FIXTURES / "cor001_bad.py"
    assert main(["--ignore", "COR001", str(path)]) == 0
    capsys.readouterr()


def test_cli_directory_walk_hits_all_bad_fixtures(capsys):
    assert main([str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    for rule_id in ("DET001", "DET002", "DET004", "COR001",
                    "CON001", "TNT001"):
        assert rule_id in out
