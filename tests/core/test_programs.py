"""Unit tests for step programs and the registry."""

import pytest

from repro.core.programs import (
    ConstantProgram,
    ExecutionContext,
    FailEveryNth,
    FailWithProbability,
    FunctionProgram,
    NoopProgram,
    ProgramRegistry,
)
from repro.errors import WorkloadError
from repro.runtime.rng import SimRandom


def ctx(attempt=1, instance="i1", step="S1", rng=None):
    return ExecutionContext(
        schema_name="W", instance_id=instance, step=step, attempt=attempt,
        now=0.0, node="agent-1", rng=rng,
    )


def test_noop_produces_attempt_tagged_outputs():
    result = NoopProgram(("a", "b")).execute({}, ctx(attempt=2))
    assert result.success
    assert result.outputs == {"a": "S1.a@2", "b": "S1.b@2"}


def test_constant_program():
    result = ConstantProgram({"x": 1}).execute({}, ctx())
    assert result.success and result.outputs == {"x": 1}


def test_function_program_success_and_failure():
    ok = FunctionProgram(lambda i, c: {"y": i["WF.x"] + 1})
    result = ok.execute({"WF.x": 1}, ctx())
    assert result.success and result.outputs == {"y": 2}

    def boom(i, c):
        raise RuntimeError("nope")

    failed = FunctionProgram(boom).execute({}, ctx())
    assert not failed.success and "nope" in failed.error


def test_function_program_compensation_hook():
    undone = []
    program = FunctionProgram(lambda i, c: {}, compensate_fn=lambda r, c: undone.append(r.step))
    from repro.storage.tables import StepRecord

    program.compensate(StepRecord(step="S1"), ctx())
    assert undone == ["S1"]


def test_fail_every_nth():
    program = FailEveryNth(NoopProgram(()), {1, 3})
    assert not program.execute({}, ctx(attempt=1)).success
    assert program.execute({}, ctx(attempt=2)).success
    assert not program.execute({}, ctx(attempt=3)).success


def test_fail_with_probability_bounds():
    with pytest.raises(WorkloadError):
        FailWithProbability(NoopProgram(()), 1.5)


def test_fail_with_probability_max_failures():
    rng = SimRandom(0).stream("always-fail")
    program = FailWithProbability(NoopProgram(()), pf=1.0, max_failures=1)
    first = program.execute({}, ctx(attempt=1, rng=rng))
    second = program.execute({}, ctx(attempt=2, rng=rng))
    assert not first.success
    assert second.success  # budget exhausted -> succeeds


def test_fail_with_probability_zero_never_fails():
    rng = SimRandom(0).stream("s")
    program = FailWithProbability(NoopProgram(()), pf=0.0)
    assert all(
        program.execute({}, ctx(attempt=n, rng=rng)).success for n in range(1, 10)
    )


def test_registry_lookup_and_fallback():
    registry = ProgramRegistry()
    program = ConstantProgram({"x": 1})
    registry.register("p", program)
    assert registry.get("p") is program
    assert registry.has("p")
    fallback = registry.get("missing", outputs=("o",))
    assert isinstance(fallback, NoopProgram)
    assert not registry.has("missing")


def test_registry_fallback_not_shared_between_steps():
    registry = ProgramRegistry()
    a = registry.get("missing", outputs=("a",))
    b = registry.get("missing", outputs=("b",))
    assert a.execute({}, ctx()).outputs != b.execute({}, ctx()).outputs
