"""Parallel workflow control: several central engines sharing the load.

"A parallel workflow control architecture is an extension of the
centralized architecture where several central engines work in parallel to
share the load of workflow scheduling. ... Each workflow instance however
is controlled by only one workflow engine."  (paper, Sections 4 and 6)

Normal execution, failure handling, aborts and input changes are exactly
the centralized mechanisms, run by the instance's *owner* engine against
the shared agent pool — which is why Table 5's message rows equal Table 4
and its load rows are the centralized loads divided by ``e``.

Coordinated execution is where parallel control pays: conflicting
instances may live on different engines, so every governed-step event
(completions, lock requests/releases, rollback-dependency triggers) is
**broadcast to all engines** and each engine maintains a replica of the
coordination state, granting clearances to the instances it owns.  That
is the paper's ``(me+ro+rd)·e·s`` message term.  Replica convergence is
timestamp-based: all ordering decisions use the originating simulation
time with the instance id as tie-breaker, and mutual-exclusion grants are
deferred by two network latencies so that any earlier-stamped in-flight
request is accounted for before a grant is issued (Lamport-style mutual
exclusion).
"""

from __future__ import annotations

import bisect
from typing import Any, Hashable, Mapping

from repro.core.coordination import mx_clearance_token
from repro.engines.base import ControlSystem, SystemConfig
from repro.engines.centralized import ApplicationAgentNode, CentralEngineNode
from repro.engines.coord import MX_RELEASE, MX_REQUEST
from repro.engines.runtime import EngineRuntime
from repro.errors import FrontEndError, SchemaError
from repro.model.compiler import CompiledSchema
from repro.model.coordination_spec import CoordinationSpec, MutualExclusionSpec
from repro.runtime.metrics import Mechanism
from repro.runtime.messages import Message
from repro.storage.tables import InstanceStatus

__all__ = ["ParallelControlSystem", "ParallelEngineNode", "TimestampMutex"]

VERB_COORD_OP = "AddEvent"  # engine-to-engine coordination broadcast verb


class TimestampMutex:
    """Replicated timestamp-ordered lock (Lamport mutual exclusion).

    Every engine applies the same request/release broadcasts; the holder is
    the earliest-stamped unreleased requester, so all replicas agree
    without a central lock manager.
    """

    def __init__(self) -> None:
        #: Unreleased requests as (stamp, instance, schema), in stamp order.
        self._requests: list[tuple[Any, str, str]] = []
        self._live: dict[str, tuple[Any, str, str]] = {}

    def request(self, stamp: Any, schema: str, instance: str) -> None:
        # A repeat request keeps its original stamp; a re-acquisition after
        # release (a region re-executed after rollback) takes the new one.
        if instance in self._live:
            return
        entry = (stamp, instance, schema)
        self._live[instance] = entry
        bisect.insort(self._requests, entry)

    def release(self, instance: str) -> None:
        entry = self._live.pop(instance, None)
        if entry is not None:
            del self._requests[bisect.bisect_left(self._requests, entry)]

    def holder(self) -> tuple[str, str] | None:
        if not self._requests:
            return None
        __, instance, schema = self._requests[0]
        return (schema, instance)

    def waiting(self) -> int:
        return len(self._requests)


class ParallelEngineNode(CentralEngineNode):
    """A central engine participating in a parallel deployment.

    Its authority bundle is this engine's replica of the relative-order
    and rollback-dependency state; region locks are replicated as
    :class:`TimestampMutex` instances, one per (spec, conflict key).
    """

    _stamp_ops = True

    def __init__(self, name: str, system: "ParallelControlSystem"):
        super().__init__(name, system)
        self._mutexes: dict[tuple[str, Hashable], TimestampMutex] = {}
        self._mx_granted: set[tuple[str, str]] = set()  # (spec, instance)

    # -- plumbing ---------------------------------------------------------------

    def _owns(self, instance_id: str) -> bool:
        return self.system.owner_of(instance_id) == self.name

    def _route_op(self, op: dict[str, Any], specs) -> None:
        """Broadcast: send the op to every peer engine and apply locally."""
        peers = [n for n in self.system.engine_nodes() if n != self.name]
        for peer in peers:
            self.send(peer, VERB_COORD_OP, op, Mechanism.COORDINATION)
        self.system.obs_coordination(
            op["instance_id"], self.name, self.simulator.now, op["op"],
            spec_name=op.get("spec"), peers=len(peers),
        )
        self._apply_op(op)

    def handle_message(self, message: Message) -> None:
        if message.interface == VERB_COORD_OP:
            self._charge(Mechanism.COORDINATION)
            self._apply_op(dict(message.payload))
            return
        super().handle_message(message)

    def coordination_sizes(self) -> dict[tuple[str, str], int]:
        """This replica's sizes, as :meth:`AuthorityBundle.sizes`."""
        sizes = self.authorities.sizes()
        for (name, __), mutex in self._mutexes.items():
            # The earliest-stamped request holds the lock; the rest wait.
            sizes["mx_waiting", name] = (
                sizes.get(("mx_waiting", name), 0) + mutex.waiting() - 1
            )
        return sizes

    # -- coordination hooks ----------------------------------------------------------

    def _coord_on_recover(self, runtime: EngineRuntime) -> None:
        # Tokens recorded as delivered died with the volatile event table;
        # forget them so the holder check re-delivers after re-acquisition.
        instance_id = runtime.state.instance_id
        for spec in self.spec_index.mx_specs(runtime.state.schema_name):
            self._mx_granted.discard((spec.name, instance_id))
        super()._coord_on_recover(runtime)

    def _apply_op(self, op: Mapping[str, Any]) -> None:
        kind = op["op"]
        if kind == MX_REQUEST:
            self._mutex(op["spec"], op["key"]).request(
                (op["time"], op["instance_id"]), op["schema"], op["instance_id"]
            )
            self._schedule_mx_check(op["spec"], op["key"])
        elif kind == MX_RELEASE:
            self._mutex_release(op["spec"], op["key"], op["instance_id"])
            self._mx_granted.discard((op["spec"], op["instance_id"]))
            self._schedule_mx_check(op["spec"], op["key"])
        else:
            super()._apply_op(op)

    def _clearances(self, op: Mapping[str, Any]) -> list:
        # Registration: the owner engine queues clearances for the
        # remaining pairs of its own instance — deferred by two broadcast
        # latencies so an earlier-stamped registration broadcast still in
        # flight settles leadership first.
        if self._owns(op["instance_id"]):
            self.schedule_causal(
                2 * self.config.latency + 0.001, self._request_clearances, op
            )
        return []

    # -- replicated mutual exclusion ----------------------------------------------------

    @staticmethod
    def _lock_key(spec_name: str, key: Hashable | None) -> tuple[str, Hashable]:
        return (spec_name, key if key is not None else "__ANY__")

    def _mutex(self, spec_name: str, key: Hashable | None) -> TimestampMutex:
        lock_key = self._lock_key(spec_name, key)
        mutex = self._mutexes.get(lock_key)
        if mutex is None:
            mutex = self._mutexes[lock_key] = TimestampMutex()
        return mutex

    def _mutex_release(self, spec_name: str, key: Hashable | None, instance: str) -> None:
        """Release ``instance``'s request; an idle lock is dropped."""
        lock_key = self._lock_key(spec_name, key)
        mutex = self._mutexes.get(lock_key)
        if mutex is None:
            return
        mutex.release(instance)
        if not mutex.waiting():
            del self._mutexes[lock_key]

    def _schedule_mx_check(self, spec_name: str, key: Hashable | None) -> None:
        # Two latencies: any earlier-stamped request is in flight for at
        # most one broadcast latency; the second covers scheduling skew.
        # Causal scheduling: a check pending across a crash must die with
        # the node, or it releases locks of instances recovery is about to
        # rebuild.
        self.schedule_causal(
            2 * self.config.latency + 0.001, self._mx_check, spec_name, key
        )

    def _mx_check(self, spec_name: str, key: Hashable | None) -> None:
        mutex = self._mutexes.get(self._lock_key(spec_name, key))
        holder = None if mutex is None else mutex.holder()
        if holder is None:
            return
        __, instance = holder
        if not self._owns(instance) or (spec_name, instance) in self._mx_granted:
            return
        runtime = self.runtimes.get(instance)
        if runtime is None:
            # Owner engine no longer runs the instance (finished): release.
            self._mutex_release(spec_name, key, instance)
            return
        self._mx_granted.add((spec_name, instance))
        runtime.mx_state[spec_name] = "held"
        self._deliver_grant(instance, mx_clearance_token(spec_name, instance))


class ParallelControlSystem(ControlSystem):
    """Public facade for parallel workflow control (``e`` engines)."""

    architecture = "parallel"

    def __init__(
        self,
        config: SystemConfig | None = None,
        num_engines: int = 2,
        num_agents: int = 4,
        agents_per_step: int = 1,
        runtime=None,
    ):
        super().__init__(config, runtime=runtime)
        if num_engines < 1:
            raise SchemaError("parallel control needs at least one engine")
        self.agents_per_step = agents_per_step
        self.engines = [
            ParallelEngineNode(f"engine-{i:02d}", self) for i in range(num_engines)
        ]
        self.agents = [
            ApplicationAgentNode(f"agent-{i:03d}", self) for i in range(num_agents)
        ]
        self._owners: dict[str, str] = {}
        self._next_engine = 0

    # -- wiring ---------------------------------------------------------------------

    def agent_names(self) -> list[str]:
        return [agent.name for agent in self.agents]

    def engine_nodes(self) -> list[str]:
        return [engine.name for engine in self.engines]

    def coordination_sizes(self) -> dict[tuple[str, str], int]:
        # Every engine replicates registrations and lock requests, so one
        # replica's view counts them; clearance requests are held only by
        # the owning engine's replica, so those add up.  Idle locks are
        # dropped, so every mutual-exclusion spec starts from zero.
        sizes: dict[tuple[str, str], int] = {
            ("mx_waiting", spec.name): 0
            for spec in self.specs if isinstance(spec, MutualExclusionSpec)
        }
        for engine in self.engines:
            for measure, value in engine.coordination_sizes().items():
                if measure[0] == "ro_pending_clearances":
                    sizes[measure] = sizes.get(measure, 0) + value
                else:
                    sizes[measure] = max(sizes.get(measure, 0), value)
        return sizes

    def _on_schema_registered(self, compiled: CompiledSchema) -> None:
        self.assignment.assign_round_robin(
            compiled, self.agent_names(), self.agents_per_step
        )
        for engine in self.engines:
            engine.wfdb.register_class(compiled)

    def _on_spec_added(self, spec: CoordinationSpec) -> None:
        for engine in self.engines:
            engine.spec_index.add(spec)
            if not isinstance(spec, MutualExclusionSpec):
                engine.authorities.host(spec)

    # -- ownership ---------------------------------------------------------------------

    def owner_of(self, instance_id: str) -> str:
        try:
            return self._owners[instance_id]
        except KeyError:
            raise FrontEndError(f"unknown instance {instance_id!r}") from None

    def _note_owner(self, instance_id: str, engine_name: str) -> None:
        self._owners[instance_id] = engine_name

    def _owner_engine(self, instance_id: str) -> ParallelEngineNode:
        name = self.owner_of(instance_id)
        return next(e for e in self.engines if e.name == name)

    # -- front-end database operations ----------------------------------------------------

    def start_workflow(
        self, schema_name: str, inputs: Mapping[str, Any], delay: float = 0.0
    ) -> str:
        self.compiled(schema_name)
        instance_id = self.new_instance_id(schema_name)
        engine = self.engines[self._next_engine % len(self.engines)]
        self._next_engine += 1
        self._note_owner(instance_id, engine.name)
        self.schedule_frontend(
            delay, engine, engine.workflow_start,
            schema_name, instance_id, dict(inputs),
        )
        return instance_id

    def abort_workflow(self, instance_id: str, delay: float = 0.0) -> None:
        engine = self._owner_engine(instance_id)
        self.schedule_frontend(delay, engine, engine.workflow_abort, instance_id)

    def change_inputs(
        self, instance_id: str, changes: Mapping[str, Any], delay: float = 0.0
    ) -> None:
        engine = self._owner_engine(instance_id)
        self.schedule_frontend(
            delay, engine, engine.workflow_change_inputs,
            instance_id, dict(changes),
        )

    def workflow_status(self, instance_id: str) -> InstanceStatus:
        return self._owner_engine(instance_id).workflow_status(instance_id)
