"""Integration tests for parallel workflow control."""

import pytest

from repro.core.programs import FailEveryNth, NoopProgram
from repro.engines import ParallelControlSystem, SystemConfig
from repro.engines.parallel import TimestampMutex
from repro.model import RelativeOrderSpec, SchemaBuilder
from repro.runtime.metrics import Mechanism
from repro.storage.tables import InstanceStatus
from tests.conftest import linear_schema, register_programs


def make(seed=3, num_engines=2, num_agents=4, agents_per_step=1):
    return ParallelControlSystem(
        SystemConfig(seed=seed), num_engines=num_engines,
        num_agents=num_agents, agents_per_step=agents_per_step,
    )


def test_instances_distributed_round_robin():
    system = make(num_engines=3)
    schema = linear_schema()
    system.register_schema(schema)
    register_programs(system, schema)
    ids = [system.start_workflow("Linear", {"x": i}) for i in range(6)]
    owners = [system.owner_of(i) for i in ids]
    assert owners == ["engine-00", "engine-01", "engine-02"] * 2
    system.run()
    assert all(system.outcome(i).committed for i in ids)


def test_message_counts_match_centralized_for_normal_execution():
    """Table 5: parallel normal-execution messages equal Table 4's 2·s·a."""
    system = make(num_engines=4, num_agents=4, agents_per_step=2)
    schema = linear_schema(steps=5)
    system.register_schema(schema)
    register_programs(system, schema)
    for i in range(4):
        system.start_workflow("Linear", {"x": i})
    system.run()
    per_instance = system.metrics.total_messages(Mechanism.NORMAL) / 4
    assert per_instance == 2 * 5 * 2


def test_per_engine_load_shrinks_with_more_engines():
    loads = {}
    for engines in (1, 4):
        system = make(num_engines=engines, num_agents=4)
        schema = linear_schema(steps=5)
        system.register_schema(schema)
        register_programs(system, schema)
        for i in range(8):
            system.start_workflow("Linear", {"x": i})
        system.run()
        loads[engines] = system.metrics.mean_node_load(
            Mechanism.NORMAL, system.engine_nodes()
        )
    assert loads[4] < loads[1]


def test_failure_handling_on_owner_engine():
    system = make()
    builder = SchemaBuilder("W", inputs=["x"])
    builder.step("A", program="W.A", inputs=["WF.x"], outputs=["o"])
    builder.step("B", program="W.B", inputs=["A.o"], outputs=["o"])
    builder.sequence("A", "B")
    builder.rollback_point("B", "A")
    schema = builder.build()
    system.register_schema(schema)
    register_programs(system, schema, behaviors={
        "B": FailEveryNth(NoopProgram(("o",)), {1}),
    })
    instance = system.start_workflow("W", {"x": 1})
    system.run()
    assert system.outcome(instance).committed
    assert system.trace.count("rollback") == 1


def test_cross_engine_relative_ordering():
    """Conflicting instances on different engines still execute in order."""
    system = make(num_engines=2, num_agents=4)
    schema = linear_schema(steps=3)
    system.register_schema(schema)
    register_programs(system, schema)
    system.add_coordination(RelativeOrderSpec(
        name="fifo", schema_a="Linear", schema_b="Linear",
        steps_a=("S1", "S2"), steps_b=("S1", "S2"), conflict_key="WF.x",
    ))
    # Same key -> conflict; engines alternate, so i1/i2 are on different engines.
    i1 = system.start_workflow("Linear", {"x": "k"}, delay=0.0)
    i2 = system.start_workflow("Linear", {"x": "k"}, delay=0.2)
    system.run()
    assert system.outcome(i1).committed and system.outcome(i2).committed
    done = {
        (r.detail["instance"], r.detail["step"]): r.time
        for r in system.trace.filter(kind="step.done")
    }
    assert done[(i1, "S2")] < done[(i2, "S2")]
    # Coordination was cross-engine: broadcast messages were exchanged.
    assert system.metrics.total_messages(Mechanism.COORDINATION) > 0


def test_coordination_messages_scale_with_engine_count():
    counts = {}
    for engines in (2, 4):
        system = make(num_engines=engines, num_agents=4)
        schema = linear_schema(steps=3)
        system.register_schema(schema)
        register_programs(system, schema)
        system.add_coordination(RelativeOrderSpec(
            name="fifo", schema_a="Linear", schema_b="Linear",
            steps_a=("S1", "S2"), steps_b=("S1", "S2"), conflict_key="WF.x",
        ))
        for i in range(4):
            system.start_workflow("Linear", {"x": "k"}, delay=i * 0.5)
        system.run()
        counts[engines] = system.metrics.total_messages(Mechanism.COORDINATION)
    assert counts[4] > counts[2]  # the paper's (me+ro+rd)*e*s broadcast term


def test_timestamp_mutex_orders_by_stamp():
    mutex = TimestampMutex()
    mutex.request((2.0, "i2"), "W", "i2")
    mutex.request((1.0, "i1"), "W", "i1")
    assert mutex.holder() == ("W", "i1")
    mutex.release("i1")
    assert mutex.holder() == ("W", "i2")
    mutex.release("i2")
    assert mutex.holder() is None


def test_timestamp_mutex_reacquire_after_release():
    mutex = TimestampMutex()
    mutex.request((1.0, "i1"), "W", "i1")
    mutex.release("i1")
    mutex.request((5.0, "i1"), "W", "i1")
    assert mutex.holder() == ("W", "i1")
    assert mutex.waiting() == 1


def test_abort_routed_to_owner_engine():
    system = make()
    builder = SchemaBuilder("W", inputs=["x"])
    builder.step("A", program="W.A", inputs=["WF.x"], outputs=["o"])
    builder.step("B", program="W.B", inputs=["A.o"], cost=100.0)
    builder.sequence("A", "B")
    builder.abort_compensation("A")
    schema = builder.build()
    system.register_schema(schema)
    register_programs(system, schema)
    i1 = system.start_workflow("W", {"x": 1})
    i2 = system.start_workflow("W", {"x": 2})
    system.abort_workflow(i2, delay=3.0)
    system.run()
    assert system.outcome(i1).committed
    assert system.outcome(i2).status is InstanceStatus.ABORTED


def test_unknown_instance_operations_rejected():
    from repro.errors import FrontEndError

    system = make()
    with pytest.raises(FrontEndError):
        system.abort_workflow("ghost")
    with pytest.raises(FrontEndError):
        system.workflow_status("ghost")
