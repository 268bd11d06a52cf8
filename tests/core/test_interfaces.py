"""Unit tests for the workflow interface catalogue (paper Tables 1-2)."""

from repro.core.interfaces import INVOKED_BY, SUPPORTED_BY, WI, default_mechanism
from repro.runtime.metrics import Mechanism


def test_all_sixteen_table1_interfaces_present():
    table1 = {
        "WorkflowStart", "WorkflowChangeInputs", "WorkflowAbort",
        "WorkflowStatus", "InputsChanged", "StepExecute", "StepCompensate",
        "StepCompleted", "StepStatus", "WorkflowRollback", "HaltThread",
        "CompensateSet", "StateInformation", "AddRule", "AddEvent",
        "AddPrecondition",
    }
    names = {wi.value for wi in WI}
    assert table1 <= names
    # Plus CompensateThread from the Section 5.2 prose.
    assert "CompensateThread" in names


def test_table2_mechanism_attribution():
    """Spot-check Table 2's Used For column."""
    assert default_mechanism(WI.WORKFLOW_START) is Mechanism.NORMAL
    assert default_mechanism(WI.STEP_EXECUTE) is Mechanism.NORMAL
    assert default_mechanism(WI.STEP_COMPLETED) is Mechanism.NORMAL
    assert default_mechanism(WI.STATE_INFORMATION) is Mechanism.NORMAL
    assert default_mechanism(WI.WORKFLOW_CHANGE_INPUTS) is Mechanism.INPUT_CHANGE
    assert default_mechanism(WI.INPUTS_CHANGED) is Mechanism.INPUT_CHANGE
    assert default_mechanism(WI.WORKFLOW_ABORT) is Mechanism.ABORT
    assert default_mechanism(WI.STEP_COMPENSATE) is Mechanism.FAILURE
    assert default_mechanism(WI.WORKFLOW_ROLLBACK) is Mechanism.FAILURE
    assert default_mechanism(WI.HALT_THREAD) is Mechanism.FAILURE
    assert default_mechanism(WI.COMPENSATE_SET) is Mechanism.FAILURE
    assert default_mechanism(WI.STEP_STATUS) is Mechanism.FAILURE
    for wi in (WI.ADD_RULE, WI.ADD_EVENT, WI.ADD_PRECONDITION):
        assert default_mechanism(wi) is Mechanism.COORDINATION


def test_every_interface_has_metadata():
    for wi in WI:
        assert default_mechanism(wi) in Mechanism
        assert SUPPORTED_BY[wi] in ("coordination", "execution")
        assert INVOKED_BY[wi]


def test_front_end_interfaces_supported_by_coordination_agent():
    for wi in (WI.WORKFLOW_START, WI.WORKFLOW_ABORT, WI.WORKFLOW_STATUS,
               WI.WORKFLOW_CHANGE_INPUTS, WI.STEP_COMPLETED):
        assert SUPPORTED_BY[wi] == "coordination"
