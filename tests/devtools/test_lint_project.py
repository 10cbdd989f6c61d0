"""The ``--explain`` surface, plus regression coverage for the
lock-discipline refactor the project rules forced on the real store
package."""

from pathlib import Path

import repro
from repro.devtools.lint import main

FIXTURES = Path(__file__).parent / "fixtures"
PACKAGE_DIR = Path(repro.__file__).parent


# -------------------------------------------------------- CLI surface --


def test_cli_explain_prints_rule_card(capsys):
    assert main(["--explain", "TNT001"]) == 0
    out = capsys.readouterr().out
    assert "TNT001" in out
    assert "bad:" in out and "good:" in out


def test_cli_explain_every_registered_rule(capsys):
    assert main(["--list-rules"]) == 0
    listed = capsys.readouterr().out
    for rule_id in ("DET001", "DET002", "DET004", "COR001", "CON001",
                    "TNT001", "API001"):
        assert rule_id in listed
        assert main(["--explain", rule_id]) == 0
        assert rule_id in capsys.readouterr().out


def test_cli_explain_unknown_rule_exits_2(capsys):
    assert main(["--explain", "NOP999"]) == 2
    assert "no such rule" in capsys.readouterr().err


def test_cli_select_unknown_rule_names_the_problem(capsys):
    assert main(["--select", "NOP001", str(FIXTURES)]) == 2
    err = capsys.readouterr().err
    assert "no such rule" in err and "NOP001" in err


# ----------------------------------- store refactor regression guards --


def test_store_package_is_lint_clean(capsys):
    assert main([str(PACKAGE_DIR / "store")]) == 0
    assert capsys.readouterr().out == ""
