"""One coordination op vocabulary across the three architectures.

Every architecture emits the same ops — only where they are applied
differs — so ``crew_coordination_ops_total`` must carry the same ``op``
label set whichever architecture ran the workload.
"""

import pytest

from repro.core.programs import NoopProgram, StepProgram, StepResult
from repro.engines.coord import OPS
from repro.model import (
    MutualExclusionSpec,
    RelativeOrderSpec,
    RollbackDependencySpec,
    SchemaBuilder,
)
from tests.conftest import ALL_ARCHITECTURES, make_system


class _FailFirstOf(StepProgram):
    """Fails one instance's first attempt."""

    def __init__(self, instance_id):
        self._instance_id = instance_id

    def execute(self, inputs, ctx):
        if ctx.instance_id == self._instance_id and ctx.attempt == 1:
            return StepResult(success=False, error="injected failure")
        return NoopProgram(("o",)).execute(inputs, ctx)


def op_labels(architecture):
    system = make_system(architecture, seed=3)
    builder = SchemaBuilder("W", inputs=["k"])
    for step, source in (("A", "WF.k"), ("B", "A.o"), ("C", "B.o"), ("D", "C.o")):
        builder.step(step, program=f"W.{step}", inputs=[source], outputs=["o"])
    builder.sequence("A", "B", "C", "D")
    builder.rollback_point("C", "B")
    system.register_schema(builder.build())
    for step in "ABD":
        system.register_program(f"W.{step}", NoopProgram(("o",)))
    system.register_program("W.C", _FailFirstOf("W-1"))
    system.add_coordination(RelativeOrderSpec(
        name="fifo", schema_a="W", schema_b="W",
        steps_a=("A", "D"), steps_b=("A", "D"), conflict_key="WF.k",
    ))
    system.add_coordination(MutualExclusionSpec(
        name="lock", schema_a="W", schema_b="W",
        region_a=("B", "C"), region_b=("B", "C"), conflict_key="WF.k",
    ))
    system.add_coordination(RollbackDependencySpec(
        name="rd", schema_a="W", schema_b="W",
        trigger_step_a="B", rollback_to_b="B", conflict_key="WF.k",
    ))
    ids = [system.start_workflow("W", {"k": "x"}, delay=0.4 * i) for i in range(3)]
    system.run()
    assert all(system.outcome(i).committed for i in ids)
    return {
        dict(child.labels)["op"]
        for child in system.registry.children("crew_coordination_ops_total")
    }


@pytest.fixture(scope="module")
def labels():
    return {architecture: op_labels(architecture) for architecture in ALL_ARCHITECTURES}


def test_every_architecture_counts_the_same_ops(labels):
    assert labels["centralized"] == labels["parallel"] == labels["distributed"]


def test_the_workload_emits_every_op(labels):
    assert labels["centralized"] == set(OPS)
