"""Engine-local coordination for centralized control.

Relative-order, mutual-exclusion and rollback-dependency authorities all
live inside the engine, so coordinated execution costs navigation load
but zero messages: every op is applied where it is emitted, grants go
straight into the waiting instance's event table, and a first-pair
registrant's clearances are requested at once.  Parallel control
overrides the routing with engine-to-engine broadcasts.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.coordination import ClearanceGrant, mx_clearance_token
from repro.engines.coord import RD_TRIGGER, CoordinationMixin
from repro.engines.runtime import EngineRuntime
from repro.model.coordination_spec import CoordinationSpec
from repro.runtime.metrics import Mechanism
from repro.storage.tables import StepStatus

__all__ = ["EngineCoordinationMixin"]


class EngineCoordinationMixin(CoordinationMixin):
    """Coordination behavior of :class:`CentralEngineNode`."""

    _stamp_ops = False

    def _coord_on_recover(self, runtime: EngineRuntime) -> None:
        """Re-acquire clearances whose token events died with the crash.

        MX grants live in the volatile event table, while the authority
        still considers them granted — so a recovered instance must ask
        again for every region its replayed rules will re-enter: regions
        opening at the start step (acquired by ``workflow_start``, which
        recovery does not re-run) and regions whose first step already
        completed (the token gates that step's re-fire).  Re-acquisition
        is idempotent at the authority.  RO clearances re-request
        themselves when the pair-0 step re-fires through the REUSE path.
        """
        schema_name = runtime.state.schema_name
        for spec in self.spec_index.mx_specs(schema_name):
            first, __ = spec.region_of(schema_name)
            record = runtime.state.steps.get(first)
            if first == runtime.compiled.start_step or (
                record is not None and record.status is StepStatus.DONE
            ):
                self._mx_acquire(runtime, spec)

    def _route_op(self, op: dict[str, Any], specs) -> None:
        """Apply locally: the authorities live in this engine."""
        self.system.obs_coordination(
            op["instance_id"], self.name, self.simulator.now, op["op"],
            spec_name=op.get("spec"),
        )
        if op["op"] == RD_TRIGGER:
            self._charge(Mechanism.COORDINATION)
        self._apply_op(op)

    def _clearances(self, op: Mapping[str, Any]) -> list[ClearanceGrant]:
        return self.authorities.request_clearances(op)

    def _deliver_grant(self, instance_id: str, token: str) -> None:
        runtime = self.runtimes.get(instance_id)
        if runtime is None:
            return
        runtime.engine.add_event(token, self.simulator.now)

    def _grant_ro(self, spec, grants: list[ClearanceGrant], op) -> None:
        for grant in grants:
            self._deliver_grant(grant.instance, grant.token)

    def _grant_mx(self, spec: CoordinationSpec, schema_name: str, instance_id: str) -> None:
        runtime = self.runtimes.get(instance_id)
        if runtime is not None:
            runtime.mx_state[spec.name] = "held"
            runtime.engine.add_event(
                mx_clearance_token(spec.name, instance_id), self.simulator.now
            )

    def _rollback_dependent(self, spec, trigger: str, dependent: str) -> None:
        if dependent not in self.runtimes:
            return  # another engine's instance (parallel control)
        self.trace.record(self.simulator.now, self.name, "rollback.dependency",
                          trigger=trigger, dependent=dependent, spec=spec.name)
        self._rollback(dependent, spec.rollback_to_b, Mechanism.FAILURE, from_rd=True)
