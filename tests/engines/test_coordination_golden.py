"""Golden guard for coordinated execution on all three architectures.

Three fixed-seed workloads run under centralized, parallel and
distributed control:

* ``sweep`` — the sweep's coordinated Table-3 workload at seed 7 (relative
  order, mutual exclusion and rollback dependency on every schema);
* ``orders`` — ``examples/order_fulfilment.laws`` (its ``order part_fifo``
  spec) plus a ``mutex`` spec on the Pack step;
* ``rd_cascade`` — one injected failure whose rollback drags the
  conflicting instances back through a rollback-dependency spec.

Each run is reduced to a fingerprint: messages per mechanism and
interface, load per node and mechanism, the committed and aborted
instance ids, the ordered ``rollback.dependency`` trace records and the
completion order of the governed steps.  The expected fingerprints live in
``coordination_golden.json``; they pin the coordination wiring's
observable behaviour, so a change to how the engines route coordination
operations must leave every one of them unchanged.

Regenerate (only when a behaviour change is intended) with
``PYTHONPATH=src python tests/engines/test_coordination_golden.py --write``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Callable

import pytest

from repro.analysis.experiment import EVAL_PARAMS, build_control_system
from repro.core.programs import NoopProgram, StepProgram, StepResult
from repro.engines import ControlSystem
from repro.laws import load_laws
from repro.model import RelativeOrderSpec, RollbackDependencySpec, SchemaBuilder
from repro.model.coordination_spec import MutualExclusionSpec
from repro.storage.tables import InstanceStatus
from repro.workloads.generator import WorkloadGenerator

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).with_name("coordination_golden.json")
ARCHITECTURES = ("centralized", "parallel", "distributed")

ORDER_MUTEX = ("mutex pack_lock between Orders[Pack..Pack] and "
               "Orders[Pack..Pack] on WF.part;")
#: (arrival time, part, qty) of each Orders instance.
ORDER_ARRIVALS = (
    (0.0, "gasket", 3), (0.4, "valve", 12), (0.9, "gasket", 15),
    (1.3, "gasket", 2), (2.1, "seal", 7), (2.6, "valve", 4),
    (3.0, "gasket", 11), (3.8, "seal", 19), (4.4, "valve", 6),
    (5.0, "gasket", 8),
)


def _sweep(architecture: str) -> ControlSystem:
    generator = WorkloadGenerator(EVAL_PARAMS, seed=7, key_pool=2,
                                  coordination=True)
    workload = generator.build()
    system = build_control_system(architecture, EVAL_PARAMS, seed=7,
                                  trace=True)
    generator.install(system, workload)
    generator.drive(system, workload)
    return system


def _orders(architecture: str) -> ControlSystem:
    laws = (ROOT / "examples" / "order_fulfilment.laws").read_text(encoding="utf-8")
    document = load_laws(laws + "\n" + ORDER_MUTEX + "\n")
    system = build_control_system(architecture, EVAL_PARAMS, seed=11,
                                  trace=True)
    document.install(system)
    for at, part, qty in ORDER_ARRIVALS:
        system.start_workflow("Orders", {"part": part, "qty": qty}, delay=at)
    return system


class _FailOnce(StepProgram):
    """Fails the first attempt of one instance; every other run succeeds."""

    def __init__(self, instance_id: str):
        self._instance_id = instance_id
        self._inner = NoopProgram(("o",))

    def execute(self, inputs, ctx):
        if ctx.instance_id == self._instance_id and ctx.attempt == 1:
            return StepResult(success=False, error="injected failure")
        return self._inner.execute(inputs, ctx)


def _rd_cascade(architecture: str) -> ControlSystem:
    system = build_control_system(architecture, EVAL_PARAMS, seed=8,
                                  trace=True)
    builder = SchemaBuilder("W", inputs=["k"])
    builder.step("A", program="W.A", inputs=["WF.k"], outputs=["o"])
    builder.step("B", program="W.B", inputs=["A.o"], outputs=["o"])
    builder.step("C", program="W.C", inputs=["B.o"], outputs=["o"], cost=80.0)
    builder.step("D", program="W.D", inputs=["C.o"], outputs=["o"])
    builder.sequence("A", "B", "C", "D")
    builder.rollback_point("C", "B")
    system.register_schema(builder.build())
    system.register_program("W.A", NoopProgram(("o",)))
    system.register_program("W.B", NoopProgram(("o",)))
    system.register_program("W.C", _FailOnce("W-1"))
    system.register_program("W.D", NoopProgram(("o",)))
    system.add_coordination(RollbackDependencySpec(
        name="rd", schema_a="W", schema_b="W",
        trigger_step_a="B", rollback_to_b="B", conflict_key="WF.k",
    ))
    system.add_coordination(RelativeOrderSpec(
        name="fifo", schema_a="W", schema_b="W",
        steps_a=("A", "D"), steps_b=("A", "D"), conflict_key="WF.k",
    ))
    for index, key in enumerate(("x", "x", "y", "x", "x")):
        system.start_workflow("W", {"k": key}, delay=0.3 * index)
    return system


WORKLOADS: dict[str, Callable[[str], ControlSystem]] = {
    "sweep": _sweep,
    "orders": _orders,
    "rd_cascade": _rd_cascade,
}


def _governed(system: ControlSystem) -> set[tuple[str, str]]:
    """(schema, step) of every step a coordination spec governs."""
    governed: set[tuple[str, str]] = set()
    for spec in system.specs:
        if isinstance(spec, RelativeOrderSpec):
            governed.update((spec.schema_a, s) for s in spec.steps_a)
            governed.update((spec.schema_b, s) for s in spec.steps_b)
        elif isinstance(spec, MutualExclusionSpec):
            for schema in (spec.schema_a, spec.schema_b):
                governed.update((schema, s) for s in spec.region_of(schema))
        else:
            governed.add((spec.schema_a, spec.trigger_step_a))
            governed.add((spec.schema_b, spec.rollback_to_b))
    return governed


def _digest(items: list) -> dict[str, Any]:
    blob = json.dumps(items, sort_keys=True).encode()
    return {"n": len(items), "sha256": hashlib.sha256(blob).hexdigest()}


def fingerprint(system: ControlSystem) -> dict[str, Any]:
    metrics = system.metrics
    governed = _governed(system)
    schema_of = {iid: outcome.schema_name for iid, outcome in system.outcomes.items()}
    completions = [
        [r.detail["instance"], r.detail["step"]]
        for r in system.trace.filter(kind="step.done")
        if (schema_of.get(r.detail["instance"]), r.detail["step"]) in governed
    ]
    committed = sorted(iid for iid, o in system.outcomes.items()
                       if o.status is InstanceStatus.COMMITTED)
    aborted = sorted(iid for iid, o in system.outcomes.items()
                     if o.status is InstanceStatus.ABORTED)
    return {
        "messages": {m.value: n for m, n in sorted(
            metrics.messages.items(), key=lambda kv: kv[0].value)},
        "messages_by_interface": {
            f"{m.value}/{iface}": n for (m, iface), n in sorted(
                metrics.messages_by_interface.items(),
                key=lambda kv: (kv[0][0].value, kv[0][1]))
        },
        "load": {
            f"{node}/{m.value}": round(units, 6) for (node, m), units in sorted(
                metrics.load.items(), key=lambda kv: (kv[0][0], kv[0][1].value))
        },
        "committed": _digest(committed),
        "aborted": aborted,
        "rollback_dependency": [
            [round(r.time, 6), r.node, r.detail["trigger"],
             r.detail["dependent"], r.detail["spec"]]
            for r in system.trace.filter(kind="rollback.dependency")
        ],
        "governed_completions": _digest(completions),
    }


def run(workload: str, architecture: str) -> dict[str, Any]:
    system = WORKLOADS[workload](architecture)
    system.run()
    return fingerprint(system)


@pytest.fixture(scope="module")
def golden() -> dict[str, Any]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("architecture", ARCHITECTURES)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_coordination_golden(golden, workload, architecture):
    expected = golden[workload][architecture]
    actual = run(workload, architecture)
    for field in expected:
        assert actual[field] == expected[field], f"{workload}/{architecture}: {field}"


def test_golden_workloads_exercise_every_mechanism(golden):
    """The guard is only as good as its coverage: governed steps complete
    in every run and rollback dependencies fire on every architecture."""
    for architecture in ARCHITECTURES:
        assert golden["rd_cascade"][architecture]["rollback_dependency"]
        for workload in WORKLOADS:
            assert golden[workload][architecture]["governed_completions"]["n"] > 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_coordination_golden.py --write")
    GOLDEN.write_text(json.dumps(
        {w: {a: run(w, a) for a in ARCHITECTURES} for w in sorted(WORKLOADS)},
        indent=1, sort_keys=True,
    ) + "\n", encoding="utf-8")
