"""The fault plan: one schema of cell faults, parsed strictly.

Covers what the chaos tests rely on (:mod:`repro.store.faults`): plan
parsing, validation of every field, ``$REPRO_FAULTS`` indirection, and
the refusal of entries naming a store operation (``"op"``), a fault
family the store no longer has.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.store import FAULTS_ENV, Fault, FaultPlan, active_plan

#: A document with every cell-fault kind.
MIXED = FaultPlan((
    Fault(cell="fig3[0.6]", kind="raise", attempts=(1, 2)),
    Fault(cell="fig3[0.7]", kind="hang", seconds=1.5),
    Fault(cell="fig3[0.8]", kind="corrupt"),
    Fault(cell="fig3[0.9]", kind="kill"),
))

#: How a plan entry naming a store operation is refused.
OP_REFUSED = r"unknown fault fields \['op'\]"


# ------------------------------------------------------------- parsing --


class TestPlanParsing:
    """One plan schema: ``cell`` entries."""

    def test_round_trip(self):
        assert FaultPlan.from_json(MIXED.to_json()) == MIXED

    def test_defaults(self):
        plan = FaultPlan.from_json(json.dumps({"faults": [
            {"cell": "t[0]", "kind": "hang"}]}))
        (cell,) = plan.faults
        assert cell == Fault(cell="t[0]", kind="hang")
        assert (cell.attempts, cell.seconds) == ((1,), 30.0)

    @pytest.mark.parametrize("doc,match", [
        ("nonsense", "not valid JSON"),
        ('["not", "an", "object"]', "must be an object"),
        ('{"faults": ["nope"]}', "must be an object"),
        ('{"faults": [{"kind": "busy"}]}', "missing required field"),
        ("{nope", "not valid JSON"),
        ('{"faults": [{"cell": "t[0]"}]}', "missing required field"),
        ('{"faults": [{"cell": "t[0]", "kind": "raise", "when": 1}]}',
         "unknown fault fields"),
        # Store-operation faults are gone with the store-retry wrapper.
        ('{"faults": [{"op": "put", "kind": "busy"}]}', OP_REFUSED),
        ('{"faults": [{"op": "*", "kind": "latency", "seconds": 0.01}]}',
         OP_REFUSED),
        ('{"faults": [{"cell": "t[0]", "op": "put", "kind": "raise"}]}',
         OP_REFUSED),
    ])
    def test_malformed_documents_fail_loudly(self, doc, match):
        with pytest.raises(ConfigurationError, match=match):
            FaultPlan.from_json(doc)

    def test_env_plan_with_an_op_entry_is_refused(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, json.dumps({"faults": [
            {"cell": "t[0]", "kind": "raise"},
            {"op": "put", "kind": "fatal"}]}))
        with pytest.raises(ConfigurationError, match=OP_REFUSED):
            active_plan()

    @pytest.mark.parametrize("kwargs,match", [
        (dict(cell="t[0]", kind="explode"), "unknown fault kind"),
        (dict(cell="t[0]", kind="raise", attempts=[0]), "1-based"),
        (dict(cell="t[0]", kind="hang", seconds=-1.0), "non-negative"),
    ])
    def test_fault_validation(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            FaultPlan.from_json(json.dumps({"faults": [kwargs]}))

    def test_triggers_by_label_and_attempt(self):
        fault = Fault(cell="t[0]", kind="raise", attempts=(2,))
        assert fault.triggers("t[0]", 2)
        assert not fault.triggers("t[0]", 1)
        assert not fault.triggers("t[1]", 2)
        assert MIXED.for_cell("fig3[0.8]") == [MIXED.faults[2]]
        assert MIXED.for_cell("fig3[0.8]", kind="raise") == []

    def test_env_unset_means_no_plan(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert active_plan() is None

    def test_env_inline_json(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, MIXED.to_json())
        assert active_plan() == MIXED

    def test_env_at_path_indirection(self, monkeypatch, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(MIXED.to_json(), encoding="utf-8")
        monkeypatch.setenv(FAULTS_ENV, f"@{path}")
        assert active_plan() == MIXED

    def test_env_missing_plan_file_raises(self, monkeypatch, tmp_path):
        monkeypatch.setenv(FAULTS_ENV, f"@{tmp_path}/absent.json")
        with pytest.raises(ConfigurationError, match="cannot read"):
            active_plan()
