"""Inter-workflow coordination duties of a distributed agent.

Coordination specs (relative ordering, mutual exclusion, rollback
dependency) are hosted by *authority agents*: every op an agent emits is
sent (AddRule) to the authority of its spec, and an authority resolves the
ops it receives into AddEvent clearance grants to the eligible agents of
the governed step, mutex handoffs and dependent rollbacks.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.coordination import ClearanceGrant, mx_clearance_token
from repro.core.interfaces import WI
from repro.engines.coord import WITHDRAW, CoordinationMixin
from repro.model.coordination_spec import CoordinationSpec
from repro.runtime.metrics import Mechanism
from repro.runtime.messages import Message

__all__ = ["AgentCoordinationMixin"]


class AgentCoordinationMixin(CoordinationMixin):
    """Coordination behavior of :class:`~repro.engines.distributed.WorkflowAgentNode`."""

    _release_unheld = True

    def _route_op(self, op: dict[str, Any], specs) -> None:
        if op["op"] != WITHDRAW:
            self._to_authority(specs[0], op)
            return
        # One message per spec: each spec's authority may be another agent.
        for entry, spec in zip(op["specs"], specs):
            self._to_authority(spec, {**op, "specs": [entry]})

    def _to_authority(self, spec: CoordinationSpec, op: dict[str, Any]) -> None:
        authority = self.system.authority_agent_for(spec)
        self.system.obs_coordination(
            op["instance_id"], self.name, self.simulator.now,
            op["op"], spec_name=spec.name, authority=authority,
        )
        if authority == self.name:
            self._apply_op(op)
        else:
            self.send(authority, WI.ADD_RULE.value, op, Mechanism.COORDINATION)

    # ------------------------------------------------------------------ authority side

    def _on_add_rule(self, message: Message) -> None:
        self._apply_op(dict(message.payload))

    def _clearances(self, op: Mapping[str, Any]) -> list:
        # Defer this registrant's clearance requests by two network
        # latencies: a report of an *earlier* first-pair completion is at
        # most one latency away, so by then leadership is settled.
        self.simulator.schedule(
            2 * self.config.latency + 0.001, self._request_clearances, op
        )
        return []

    def _grant_ro(self, spec, grants: list[ClearanceGrant], op) -> None:
        authority = self.authorities.ro[spec.name]
        # Snapshot every grant's pairs before sending any: a local delivery
        # can feed further reports back into the authority.  Grants freed
        # by a withdrawal carry no pairs.
        orders = [
            [] if op["op"] == WITHDRAW else
            [[spec.name, leading, lagging]
             for leading, lagging in authority.pairs_of(grant.instance)]
            for grant in grants
        ]
        for grant, grant_orders in zip(grants, orders):
            step = spec.ordered_steps(grant.schema)[grant.pair_index]
            self._send_grant(grant.schema, grant.instance, step, grant.token,
                             orders=grant_orders)

    def _grant_mx(self, spec: CoordinationSpec, schema_name: str, instance_id: str) -> None:
        first, __ = spec.region_of(schema_name)
        self._send_grant(schema_name, instance_id, first,
                         mx_clearance_token(spec.name, instance_id))

    def _send_grant(
        self, schema_name: str, instance_id: str, step: str, token: str,
        orders: list | None = None,
    ) -> None:
        """AddEvent WI: deliver a clearance token to the eligible agents of
        the governed step (piggybacking any established leading/lagging
        pairs — the Figure 7 "R.O." lines)."""
        payload = {
            "schema_name": schema_name,
            "instance_id": instance_id,
            "token": token,
            "orders": orders or [],
        }
        for agent in self.agdb.eligible_agents(schema_name, step):
            if agent == self.name:
                self._apply_add_event(payload)
            else:
                self.send(agent, WI.ADD_EVENT.value, payload, Mechanism.COORDINATION)

    def _on_add_event(self, message: Message) -> None:
        self._apply_add_event(message.payload)

    def _apply_add_event(self, payload: Mapping[str, Any]) -> None:
        instance_id = payload["instance_id"]
        runtime = self._runtime(payload["schema_name"], instance_id)
        if payload["token"].startswith("EXT.MX."):
            spec_name = payload["token"].split(".")[2]
            runtime.mx_state[spec_name] = "held"
        for spec_name, leading, lagging in payload.get("orders", ()):
            runtime.ro_info.add((spec_name, leading, lagging))
        runtime.engine.add_event(payload["token"], self.simulator.now)

    def _on_add_precondition(self, message: Message) -> None:
        payload = message.payload
        runtime = self._runtime(payload["schema_name"], payload["instance_id"])
        runtime.engine.add_step_precondition(payload["step"], payload["token"])

    def _rollback_dependent(self, spec, trigger: str, dependent: str) -> None:
        compiled = self.system.compiled(spec.schema_b)
        target = self._elect(compiled, dependent, spec.rollback_to_b)
        rollback_payload = {
            "schema_name": spec.schema_b,
            "instance_id": dependent,
            "origin": spec.rollback_to_b,
            "failed_step": None,
            "epoch": -1,  # resolved at the target from its fragment
            "mechanism": Mechanism.FAILURE.value,
            "from_rd": True,
        }
        self.trace.record(self.simulator.now, self.name, "rollback.dependency",
                          trigger=trigger, dependent=dependent, spec=spec.name)
        if target == self.name:
            self._apply_dependent_rollback(rollback_payload)
        else:
            self.send(target, WI.WORKFLOW_ROLLBACK.value, rollback_payload,
                      Mechanism.FAILURE)

    def _apply_dependent_rollback(self, payload: dict[str, Any]) -> None:
        runtime = self.runtimes.get(payload["instance_id"])
        epoch = (runtime.fragment.recovery_epoch + 1) if runtime is not None else 1
        self._apply_workflow_rollback({**payload, "epoch": epoch})
