"""The coordination protocol shared by the three control architectures.

:class:`SpecIndex` answers the static questions every node asks while
navigating ("is this step governed by a relative-ordering pair?", "does
this step open a mutual-exclusion region?"); :class:`AuthorityBundle`
holds the live authority state machines for the specs one node is the
authority for (the engine in centralized control, every engine's replica
in parallel control, an authority agent in distributed control) and
applies coordination ops to them.

:class:`CoordinationMixin` is the requester side: it decides which ops a
step completion, rollback, instance start or finish emits and hands out
what an applied op freed.  An op is a plain dict: ``op`` (one of
:data:`OPS`), ``spec``, ``schema``, ``instance_id`` and the instance's
conflict ``key``; a relative-order report adds ``pair_index``, and a
``withdraw`` names ``specs`` as ``[kind, name]`` pairs instead of one
``spec``.  What differs between the architectures stays in their nodes:
where an op is applied (``_route_op``), how a grant reaches the waiting
instance (``_grant_ro``/``_grant_mx``/``_rollback_dependent``) and when a
first-pair registrant asks for its later pairs (``_clearances``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Iterator, Mapping, Sequence

from repro.core.coordination import (
    ClearanceGrant,
    MutualExclusionAuthority,
    RelativeOrderAuthority,
    RollbackDependencyAuthority,
    mx_clearance_token,
    ro_clearance_token,
)
from repro.errors import CoordinationError
from repro.model.coordination_spec import (
    CoordinationSpec,
    MutualExclusionSpec,
    RelativeOrderSpec,
    RollbackDependencySpec,
)
from repro.storage.tables import InstanceState

__all__ = ["OPS", "AuthorityBundle", "CoordinationMixin", "Freed", "SpecIndex"]

RO_REPORT = "ro_report"
MX_REQUEST = "mx_request"
MX_RELEASE = "mx_release"
RD_REPORT = "rd_report"
RD_TRIGGER = "rd_trigger"
WITHDRAW = "withdraw"
#: The op vocabulary; also the ``op`` labels of ``crew_coordination_ops_total``.
OPS = (RO_REPORT, MX_REQUEST, MX_RELEASE, RD_REPORT, RD_TRIGGER, WITHDRAW)

#: Region-lock states in which an instance holds, or waits for, the lock.
_HOLDING = ("requested", "held")


class SpecIndex:
    """Static lookups over the installed coordination specs."""

    def __init__(self) -> None:
        self.ro: list[RelativeOrderSpec] = []
        self.mx: list[MutualExclusionSpec] = []
        self.rd: list[RollbackDependencySpec] = []

    def add(self, spec: CoordinationSpec) -> None:
        if isinstance(spec, RelativeOrderSpec):
            self.ro.append(spec)
        elif isinstance(spec, MutualExclusionSpec):
            self.mx.append(spec)
        elif isinstance(spec, RollbackDependencySpec):
            self.rd.append(spec)
        else:
            raise CoordinationError(f"unknown coordination spec type {type(spec)!r}")

    def all_specs(self) -> list[CoordinationSpec]:
        return [*self.ro, *self.mx, *self.rd]

    def specs_for(self, schema: str) -> list[CoordinationSpec]:
        return [s for s in self.all_specs() if s.involves(schema)]

    # -- relative ordering -------------------------------------------------------

    def ro_roles(self, schema: str, step: str) -> list[tuple[RelativeOrderSpec, int]]:
        """(spec, pair index) for every RO spec governing this step."""
        roles = []
        for spec in self.ro:
            for side, steps in ((spec.schema_a, spec.steps_a), (spec.schema_b, spec.steps_b)):
                if schema == side and step in steps:
                    roles.append((spec, steps.index(step)))
                    break
        return roles

    def ro_governed_pairs(self, schema: str) -> list[tuple[RelativeOrderSpec, int, str]]:
        """All (spec, pair index, step) the schema participates in."""
        out = []
        for spec in self.ro:
            for side, steps in ((spec.schema_a, spec.steps_a), (spec.schema_b, spec.steps_b)):
                if schema == side:
                    out.extend((spec, k, s) for k, s in enumerate(steps))
                    break
        return out

    # -- mutual exclusion ----------------------------------------------------------

    def mx_specs(self, schema: str) -> list[MutualExclusionSpec]:
        return [s for s in self.mx if s.involves(schema)]

    def mx_region_first(self, schema: str, step: str) -> list[MutualExclusionSpec]:
        return [s for s in self.mx_specs(schema) if s.region_of(schema)[0] == step]

    def mx_region_last(self, schema: str, step: str) -> list[MutualExclusionSpec]:
        return [s for s in self.mx_specs(schema) if s.region_of(schema)[1] == step]

    # -- rollback dependency -----------------------------------------------------------

    def rd_triggers(self, schema: str) -> list[RollbackDependencySpec]:
        return [s for s in self.rd if s.schema_a == schema]

    def rd_targets(self, schema: str, step: str) -> list[RollbackDependencySpec]:
        return [s for s in self.rd if s.schema_b == schema and s.rollback_to_b == step]

    # -- conflict binding ----------------------------------------------------------------

    @staticmethod
    def conflict_key_value(spec: CoordinationSpec, state: InstanceState) -> Hashable | None:
        """The instance's conflict-key value (None = conflicts with all)."""
        if spec.conflict_key is None:
            return None
        value = state.data.get(spec.conflict_key)
        if isinstance(value, Hashable):
            return value
        return str(value)


@dataclass(slots=True)
class Freed:
    """What one applied op freed at one authority."""

    spec: CoordinationSpec
    #: Relative-order clearances that are now grantable, in grant order.
    ro_grants: Sequence[ClearanceGrant] = ()
    #: ``(schema, instance)`` that now holds the region lock.
    mx_grantee: tuple[str, str] | None = None
    #: Instances a rollback-dependency trigger must roll back.
    rd_dependents: Sequence[str] = ()
    #: A first-pair report registered the instance: it must now request
    #: clearance for its later pairs.
    register: bool = False


class AuthorityBundle:
    """Live authority state machines, keyed by spec name."""

    def __init__(self) -> None:
        self.ro: dict[str, RelativeOrderAuthority] = {}
        self.mx: dict[str, MutualExclusionAuthority] = {}
        self.rd: dict[str, RollbackDependencyAuthority] = {}

    def host(self, spec: CoordinationSpec) -> None:
        if isinstance(spec, RelativeOrderSpec):
            self.ro[spec.name] = RelativeOrderAuthority(spec)
        elif isinstance(spec, MutualExclusionSpec):
            self.mx[spec.name] = MutualExclusionAuthority(spec)
        elif isinstance(spec, RollbackDependencySpec):
            self.rd[spec.name] = RollbackDependencyAuthority(spec)
        else:  # pragma: no cover - defensive
            raise CoordinationError(f"unknown coordination spec type {type(spec)!r}")

    def sizes(self) -> dict[tuple[str, str], int]:
        """Live authority sizes as ``{(measure, spec name): value}``."""
        sizes = {}
        for name, authority in self.ro.items():
            sizes["ro_registrations", name] = authority.registration_count()
            sizes["ro_pending_clearances", name] = authority.pending_count()
        for name, authority in self.mx.items():
            sizes["mx_waiting", name] = authority.waiting_count()
        return sizes

    def apply(self, op: Mapping[str, Any]) -> Iterable[Freed]:
        """Apply one op; returns what it freed, one entry per authority."""
        kind = op["op"]
        instance = op["instance_id"]
        if kind == WITHDRAW:
            return self._withdraw(op["specs"], instance)
        name, key = op["spec"], op["key"]
        if kind == RO_REPORT:
            ro = self.ro[name]
            time = op.get("time")
            register = op["pair_index"] == 0
            grants = ro.report_completion(
                op["schema"], instance, op["pair_index"], key,
                order_key=None if time is None else (time, instance),
            )
            if grants or register:
                return (Freed(ro.spec, ro_grants=grants, register=register),)
        elif kind == MX_REQUEST:
            mx = self.mx[name]
            if mx.acquire(op["schema"], instance, key):
                return (Freed(mx.spec, mx_grantee=(op["schema"], instance)),)
        elif kind == MX_RELEASE:
            mx = self.mx[name]
            grantee = mx.release(op["schema"], instance, key)
            if grantee is not None:
                return (Freed(mx.spec, mx_grantee=grantee),)
        elif kind == RD_REPORT:
            self.rd[name].report_target_executed(instance, key)
        elif kind == RD_TRIGGER:
            rd = self.rd[name]
            return (Freed(rd.spec, rd_dependents=rd.dependents_of(instance, key)),)
        else:
            raise CoordinationError(f"unknown coordination op {kind!r}")
        return ()

    def _withdraw(self, specs: Sequence[Sequence[str]], instance: str) -> Iterator[Freed]:
        """Withdraw an instance from the named ``[kind, name]`` specs.

        Each relative-order authority's grants are handed out before the
        next authority is touched, so a delivery made in between sees the
        state it would have seen from separate per-spec withdrawals.
        """
        for kind, name in specs:
            if kind == "rd":
                self.rd[name].withdraw(instance)
            else:
                authority = self.ro[name]
                yield Freed(authority.spec, ro_grants=authority.withdraw(instance))

    def request_clearances(self, op: Mapping[str, Any]) -> list[ClearanceGrant]:
        """A first-pair registrant's clearance requests for its later
        pairs (``op`` is its report); returns the grants available now."""
        authority = self.ro[op["spec"]]
        grants = []
        for later in range(1, len(authority.spec.steps_a)):
            grant = authority.request_clearance(
                op["schema"], op["instance_id"], later, op["key"]
            )
            if grant is not None:
                grants.append(grant)
        return grants


class CoordinationMixin:
    """Requester side of coordination, shared by engines and agents.

    A host node provides ``spec_index``, ``authorities``, ``runtimes``,
    ``system`` and ``simulator``, plus the per-architecture hooks:
    ``_route_op`` (apply locally, broadcast, or send to the authority
    agent), ``_grant_ro``/``_grant_mx``/``_rollback_dependent`` (deliver
    what an op freed) and ``_clearances`` (when a registrant's later pairs
    are requested).
    """

    #: Stamp ops with their execution time.  A local authority hears each
    #: report as it happens, so arrival order is execution order; a
    #: replicated or remote one must order reports by the stamp instead.
    _stamp_ops = True
    #: Release a region at its last step even when this node never saw
    #: the lock granted.  An engine knows; the agent finishing a region
    #: may not be the one that acquired it, so it always tells the
    #: authority, which ignores a release by a non-holder.
    _release_unheld = False

    # -- requester side ----------------------------------------------------------

    def _op(self, kind: str, spec: CoordinationSpec, state: InstanceState,
            **fields: Any) -> dict[str, Any]:
        op = {
            "op": kind,
            "spec": spec.name,
            "schema": state.schema_name,
            "instance_id": state.instance_id,
            "key": SpecIndex.conflict_key_value(spec, state),
            **fields,
        }
        if self._stamp_ops:
            op["time"] = self.simulator.now
        return op

    def _install_preconditions(self, runtime, hosted: frozenset[str] | None = None) -> None:
        """Gate governed steps on their clearance tokens (only the steps in
        ``hosted``, when the node enacts part of the instance)."""
        schema_name = runtime.state.schema_name
        instance_id = runtime.state.instance_id
        for spec, pair_index, step in self.spec_index.ro_governed_pairs(schema_name):
            if pair_index >= 1 and (hosted is None or step in hosted):
                runtime.engine.add_step_precondition(
                    step, ro_clearance_token(spec.name, pair_index, instance_id)
                )
        for spec in self.spec_index.mx_specs(schema_name):
            first, __ = spec.region_of(schema_name)
            if hosted is None or first in hosted:
                runtime.engine.add_step_precondition(
                    first, mx_clearance_token(spec.name, instance_id)
                )

    def _coord_enter(self, runtime, step: str) -> None:
        """Request the region locks of the regions that open at ``step``."""
        for spec in self.spec_index.mx_region_first(runtime.state.schema_name, step):
            self._mx_acquire(runtime, spec)

    def _coord_step_done(self, runtime, step: str, successors: Sequence[str] = ()) -> None:
        """Ops of a step completion: relative-order reports, region
        releases, lock requests for the ``successors`` that open a region,
        and rollback-dependency target reports."""
        state = runtime.state
        schema_name = state.schema_name
        for spec, pair_index in self.spec_index.ro_roles(schema_name, step):
            self._route_op(self._op(RO_REPORT, spec, state, pair_index=pair_index), (spec,))
        for spec in self.spec_index.mx_region_last(schema_name, step):
            if self._release_unheld or runtime.mx_state.get(spec.name) in _HOLDING:
                self._mx_release(runtime, spec)
        for successor in successors:
            self._coord_enter(runtime, successor)
        for spec in self.spec_index.rd_targets(schema_name, step):
            self._route_op(self._op(RD_REPORT, spec, state), (spec,))

    def _coord_rollback(self, runtime, steps) -> None:
        """Ops of a rollback over ``steps``: its rollback-dependency triggers."""
        state = runtime.state
        for spec in self.spec_index.rd_triggers(state.schema_name):
            if spec.trigger_step_a in steps:
                self._route_op(self._op(RD_TRIGGER, spec, state), (spec,))

    def _coord_finish(self, runtime, aborted: bool) -> None:
        """Ops of a commit or abort: free held region locks, then withdraw
        from the rollback-dependency specs (and, on abort, the
        relative-order specs) that hold the instance."""
        state = runtime.state
        schema_name = state.schema_name
        for spec in self.spec_index.mx_specs(schema_name):
            if runtime.mx_state.get(spec.name) in _HOLDING:
                self._mx_release(runtime, spec)
        rd = [s for s in self.spec_index.rd if s.schema_b == schema_name]
        ro = [s for s in self.spec_index.ro if s.involves(schema_name)] if aborted else []
        self._route_op({
            "op": WITHDRAW,
            "instance_id": state.instance_id,
            "specs": [["rd", s.name] for s in rd] + [["ro", s.name] for s in ro],
        }, rd + ro)

    def _mx_acquire(self, runtime, spec: CoordinationSpec) -> None:
        if runtime.mx_state.get(spec.name) in _HOLDING:
            return
        runtime.mx_state[spec.name] = "requested"
        self._route_op(self._op(MX_REQUEST, spec, runtime.state), (spec,))

    def _mx_release(self, runtime, spec: CoordinationSpec) -> None:
        runtime.mx_state[spec.name] = "released"
        self._route_op(self._op(MX_RELEASE, spec, runtime.state), (spec,))

    # -- authority side ------------------------------------------------------------

    def _apply_op(self, op: Mapping[str, Any]) -> None:
        """Apply an op at this node's authorities; hand out what it freed."""
        for freed in self.authorities.apply(op):
            grants = freed.ro_grants
            if freed.register:
                grants = [*grants, *self._clearances(op)]
            if grants:
                self._grant_ro(freed.spec, grants, op)
            if freed.mx_grantee is not None:
                self._grant_mx(freed.spec, *freed.mx_grantee)
            for dependent in freed.rd_dependents:
                self._rollback_dependent(freed.spec, op["instance_id"], dependent)

    def _request_clearances(self, op: Mapping[str, Any]) -> None:
        """Deferred clearance requests of the registrant that sent ``op``."""
        grants = self.authorities.request_clearances(op)
        if grants:
            self._grant_ro(self.authorities.ro[op["spec"]].spec, grants, op)
