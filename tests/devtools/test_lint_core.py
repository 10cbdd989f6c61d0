"""reprolint framework tests: registry, suppressions, scoping, resolution."""

import ast

import pytest

from repro.devtools.lint import (
    Checker,
    LintConfigError,
    Rule,
    dotted_name,
    import_aliases,
    parse_suppressions,
    register_rule,
    rule_ids,
    unregister_rule,
)

BUILTIN_IDS = {"DET001", "DET002", "DET004", "COR001"}


def test_builtin_ruleset_registered():
    assert BUILTIN_IDS <= set(rule_ids())


def test_register_rule_mirrors_experiment_registry():
    @register_rule
    class ProbeRule(Rule):
        rule_id = "ZZZ901"
        summary = "probe"

        def check(self, ctx):
            return iter(())

    try:
        assert "ZZZ901" in rule_ids()
        with pytest.raises(LintConfigError):
            register_rule(ProbeRule)  # duplicate stable ID
    finally:
        unregister_rule("ZZZ901")
    assert "ZZZ901" not in rule_ids()


@pytest.mark.parametrize("rule_id", ["", "det001", "DET1", "X001", "DET0001"])
def test_register_rule_rejects_malformed_ids(rule_id):
    class BadRule(Rule):
        summary = "bad"

    BadRule.rule_id = rule_id
    with pytest.raises(LintConfigError):
        register_rule(BadRule)


def test_register_rule_requires_summary():
    class NoSummary(Rule):
        rule_id = "ZZZ902"
        summary = ""

    with pytest.raises(LintConfigError):
        register_rule(NoSummary)


def test_custom_rule_runs_through_checker():
    @register_rule
    class NoPrintRule(Rule):
        rule_id = "ZZZ903"
        summary = "flag print calls"

        def check(self, ctx):
            for node in ast.walk(ctx.tree):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "print"):
                    yield self.finding(ctx, node, "print call")

    try:
        checker = Checker([NoPrintRule])
        findings = checker.check_source("print('hello')\n")
        assert [f.rule_id for f in findings] == ["ZZZ903"]
    finally:
        unregister_rule("ZZZ903")


def test_parse_suppressions_lines_and_ids():
    source = (
        "x = 1  # reprolint: disable=DET001\n"
        "y = 2\n"
        "z = 3  # reprolint: disable=DET002, COR001\n"
        "w = 4  # reprolint: disable=all\n"
    )
    table = parse_suppressions(source)
    assert table[1] == frozenset({"DET001"})
    assert 2 not in table
    assert table[3] == frozenset({"DET002", "COR001"})
    assert table[4] == frozenset({"all"})


def test_suppression_silences_only_named_rule():
    checker = Checker()
    noisy = "import random\nr = random.Random()\n"
    assert any(f.rule_id == "DET001" for f in checker.check_source(noisy))
    silenced = ("import random\n"
                "r = random.Random()  # reprolint: disable=DET001\n")
    assert checker.check_source(silenced) == []
    wrong_id = ("import random\n"
                "r = random.Random()  # reprolint: disable=DET002\n")
    assert any(f.rule_id == "DET001" for f in checker.check_source(wrong_id))


def test_no_suppressions_mode_reports_anyway():
    source = ("import random\n"
              "r = random.Random()  # reprolint: disable=DET001\n")
    assert Checker(respect_suppressions=False).check_source(source)


def test_import_aliases_resolution():
    tree = ast.parse(
        "import random\n"
        "import numpy as np\n"
        "from datetime import datetime\n"
        "from time import time as wall\n"
        "from . import sibling\n")
    aliases = import_aliases(tree)
    assert aliases["random"] == "random"
    assert aliases["np"] == "numpy"
    assert aliases["datetime"] == "datetime.datetime"
    assert aliases["wall"] == "time.time"
    assert "sibling" not in aliases  # relative imports are ignored


def test_dotted_name_requires_tracked_root():
    aliases = {"np": "numpy"}
    node = ast.parse("np.random.default_rng", mode="eval").body
    assert dotted_name(node, aliases) == "numpy.random.default_rng"
    unknown = ast.parse("rng.random", mode="eval").body
    assert dotted_name(unknown, aliases) is None


def test_include_scope_only_binds_inside_package():
    source = "x = 1.0\nflag = x == 0.5\n"
    checker = Checker()
    in_core = checker.check_source(source, path="src/repro/core/probe.py")
    assert any(f.rule_id == "COR001" for f in in_core)
    elsewhere = checker.check_source(source, path="src/repro/trace/probe.py")
    assert not any(f.rule_id == "COR001" for f in elsewhere)
    standalone = checker.check_source(source, path="snippets/probe.py")
    assert any(f.rule_id == "COR001" for f in standalone)


def test_allow_scope_skips_sanctioned_files():
    source = "import random\nrandom.seed(7)\n"
    checker = Checker()
    sanctioned = checker.check_source(
        source, path="src/repro/runner/worker.py")
    assert not any(f.rule_id == "DET001" for f in sanctioned)
    ordinary = checker.check_source(
        source, path="src/repro/runner/cells.py")
    assert any(f.rule_id == "DET001" for f in ordinary)


def test_findings_are_sorted_and_renderable():
    source = ("import random\n"
              "b = random.Random()\n"
              "a = random.Random()\n")
    findings = Checker().check_source(source, path="probe.py")
    assert [f.line for f in findings] == sorted(f.line for f in findings)
    rendered = findings[0].render()
    assert rendered.startswith("probe.py:2:")
    assert "DET001" in rendered
    payload = findings[0].to_dict()
    assert payload["rule"] == "DET001"
    assert payload["line"] == 2


def test_syntax_error_propagates():
    with pytest.raises(SyntaxError):
        Checker().check_source("def broken(:\n")
