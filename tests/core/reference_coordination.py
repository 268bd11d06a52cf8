"""Reference copies of the coordination authorities before indexing.

These are the linear-scan :class:`RelativeOrderAuthority`,
:class:`MutualExclusionAuthority`, :class:`RollbackDependencyAuthority`
and the parallel engine's :class:`TimestampMutex`, kept verbatim as test
oracles: the indexed implementations in :mod:`repro.core.coordination`
and :mod:`repro.engines.parallel` must return exactly what these return.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Hashable

from repro.core.coordination import ClearanceGrant, ro_clearance_token
from repro.errors import CoordinationError
from repro.model.coordination_spec import (
    MutualExclusionSpec,
    RelativeOrderSpec,
    RollbackDependencySpec,
)


def _conflicts(key_a: Hashable | None, key_b: Hashable | None) -> bool:
    """Key-based conflict binding; a ``None`` key conflicts with everything."""
    if key_a is None or key_b is None:
        return True
    return key_a == key_b


@dataclass(frozen=True)
class _Registration:
    schema: str
    instance: str
    key: Hashable | None
    #: Ordering key: an auto-incremented int in single-authority mode, or an
    #: externally supplied totally-ordered key (e.g. ``(time, instance)``)
    #: in replicated mode so every replica derives the same leading/lagging
    #: relation.
    seq: Any


class RelativeOrderAuthority:
    """Serialization point for one :class:`RelativeOrderSpec`.

    Protocol (mirrors the paper's Figure 4 exchange):

    1. When an instance completes its *first* governed pair step, the
       executing agent reports it (:meth:`report_completion` with pair
       index 0).  Registration order establishes leading/lagging between
       conflicting instances: earlier registrant leads.
    2. Before executing pair step ``k >= 1``, the executor requests
       clearance.  It is granted once every conflicting *leader* has
       completed its own pair-``k`` step.
    3. Completions of pair ``k`` steps are reported; the authority returns
       the clearances that become grantable.
    """

    def __init__(self, spec: RelativeOrderSpec):
        self.spec = spec
        self._seq = 0
        self._registrations: dict[str, _Registration] = {}
        self._completions: set[tuple[str, int]] = set()
        self._pending: list[ClearanceGrant] = []

    # -- spec geometry ------------------------------------------------------------

    def pair_index(self, schema: str, step: str) -> int | None:
        """Index of ``step`` within the spec's governed pairs (None if not
        governed for that schema)."""
        for side_schema, steps in (
            (self.spec.schema_a, self.spec.steps_a),
            (self.spec.schema_b, self.spec.steps_b),
        ):
            if schema == side_schema and step in steps:
                return steps.index(step)
        return None

    # -- protocol ------------------------------------------------------------------

    def _register(
        self,
        schema: str,
        instance: str,
        key: Hashable | None,
        order_key: Any = None,
    ) -> None:
        if instance in self._registrations:
            return
        if order_key is None:
            self._seq += 1
            order_key = self._seq
        self._registrations[instance] = _Registration(schema, instance, key, order_key)

    def leaders_of(self, schema: str, instance: str) -> list[_Registration]:
        """Conflicting instances registered before ``instance``."""
        mine = self._registrations.get(instance)
        if mine is None:
            raise CoordinationError(
                f"instance {instance!r} requested ordering before registering "
                f"its first governed step under spec {self.spec.name!r}"
            )
        leaders = []
        for other in self._registrations.values():
            if other.instance == instance:
                continue
            if other.seq >= mine.seq:
                continue
            if self.spec.schema_a != self.spec.schema_b and other.schema == schema:
                continue  # ordering binds instances across the two schemas
            if _conflicts(other.key, mine.key):
                leaders.append(other)
        return sorted(leaders, key=lambda r: r.seq)

    def report_completion(
        self,
        schema: str,
        instance: str,
        pair_index: int,
        key: Hashable | None,
        order_key: Any = None,
    ) -> list[ClearanceGrant]:
        """Record a governed-step completion; returns newly-grantable
        clearances (including, possibly, ones for other instances)."""
        if pair_index == 0:
            self._register(schema, instance, key, order_key)
        self._completions.add((instance, pair_index))
        return self._drain_grantable()

    def request_clearance(
        self, schema: str, instance: str, pair_index: int, key: Hashable | None
    ) -> ClearanceGrant | None:
        """Ask to execute pair step ``pair_index``; returns the grant if it
        can proceed now, otherwise records it as pending."""
        if pair_index == 0:
            # First pair executes freely; order is established by its completion.
            return ClearanceGrant(
                schema, instance, pair_index, ro_clearance_token(self.spec.name, 0, instance)
            )
        grant = ClearanceGrant(
            schema,
            instance,
            pair_index,
            ro_clearance_token(self.spec.name, pair_index, instance),
        )
        if self._cleared(schema, instance, pair_index):
            return grant
        self._pending.append(grant)
        return None

    def withdraw(self, instance: str) -> list[ClearanceGrant]:
        """Remove an aborted instance; may unblock lagging instances."""
        self._registrations.pop(instance, None)
        self._completions = {c for c in self._completions if c[0] != instance}
        self._pending = [g for g in self._pending if g.instance != instance]
        return self._drain_grantable()

    # -- internals ------------------------------------------------------------------------

    def _cleared(self, schema: str, instance: str, pair_index: int) -> bool:
        return all(
            (leader.instance, pair_index) in self._completions
            for leader in self.leaders_of(schema, instance)
        )

    def _drain_grantable(self) -> list[ClearanceGrant]:
        granted, still_pending = [], []
        for grant in self._pending:
            if self._cleared(grant.schema, grant.instance, grant.pair_index):
                granted.append(grant)
            else:
                still_pending.append(grant)
        self._pending = still_pending
        return granted

    # -- introspection ----------------------------------------------------------------------

    def is_leading(self, instance: str, other: str) -> bool | None:
        """True if ``instance`` leads ``other`` (None when undetermined)."""
        a = self._registrations.get(instance)
        b = self._registrations.get(other)
        if a is None or b is None:
            return None
        return a.seq < b.seq

    def established_pairs(self) -> list[tuple[str, str]]:
        """All (leading, lagging) conflicting instance pairs so far."""
        regs = sorted(self._registrations.values(), key=lambda r: r.seq)
        pairs = []
        for i, lead in enumerate(regs):
            for lag in regs[i + 1 :]:
                cross = self.spec.schema_a == self.spec.schema_b or lead.schema != lag.schema
                if cross and _conflicts(lead.key, lag.key):
                    pairs.append((lead.instance, lag.instance))
        return pairs


class MutualExclusionAuthority:
    """FIFO region lock manager for one :class:`MutualExclusionSpec`."""

    def __init__(self, spec: MutualExclusionSpec):
        self.spec = spec
        self._holders: dict[Hashable, tuple[str, str]] = {}
        self._queues: dict[Hashable, deque[tuple[str, str]]] = {}

    @staticmethod
    def _lock_key(key: Hashable | None) -> Hashable:
        return key if key is not None else "__ANY__"

    def acquire(self, schema: str, instance: str, key: Hashable | None) -> bool:
        """Request the region lock; True when granted immediately.

        Re-acquisition by the current holder (re-execution after rollback)
        is granted idempotently.
        """
        lock = self._lock_key(key)
        holder = self._holders.get(lock)
        if holder is None:
            self._holders[lock] = (schema, instance)
            return True
        if holder == (schema, instance):
            return True
        queue = self._queues.setdefault(lock, deque())
        if (schema, instance) not in queue:
            queue.append((schema, instance))
        return False

    def release(self, schema: str, instance: str, key: Hashable | None) -> tuple[str, str] | None:
        """Release the lock; returns the next grantee, if any.

        Releasing a lock one doesn't hold (e.g. a rolled back region that
        never acquired it) silently drops any queued request instead.
        """
        lock = self._lock_key(key)
        if self._holders.get(lock) != (schema, instance):
            queue = self._queues.get(lock)
            if queue and (schema, instance) in queue:
                queue.remove((schema, instance))
            return None
        queue = self._queues.get(lock)
        if queue:
            grantee = queue.popleft()
            self._holders[lock] = grantee
            return grantee
        del self._holders[lock]
        return None

    def holder(self, key: Hashable | None) -> tuple[str, str] | None:
        return self._holders.get(self._lock_key(key))

    def queue_length(self, key: Hashable | None) -> int:
        return len(self._queues.get(self._lock_key(key), ()))


class RollbackDependencyAuthority:
    """Tracks which instances must roll back when a trigger fires."""

    def __init__(self, spec: RollbackDependencySpec):
        self.spec = spec
        self._targets: dict[str, Hashable | None] = {}

    def report_target_executed(self, instance: str, key: Hashable | None) -> None:
        """Instance of ``schema_b`` completed ``rollback_to_b``."""
        self._targets[instance] = key

    def withdraw(self, instance: str) -> None:
        self._targets.pop(instance, None)

    def dependents_of(self, trigger_instance: str, key: Hashable | None) -> list[str]:
        """Conflicting instances to roll back when the trigger fires."""
        return sorted(
            inst
            for inst, inst_key in self._targets.items()
            if inst != trigger_instance and _conflicts(inst_key, key)
        )


class TimestampMutex:
    """Replicated timestamp-ordered lock (Lamport mutual exclusion).

    Every engine applies the same request/release broadcasts; the holder is
    the earliest-stamped unreleased requester, so all replicas agree
    without a central lock manager.
    """

    def __init__(self) -> None:
        self._requests: list[tuple[Any, str, str]] = []  # (stamp, schema, inst)
        self._released: set[str] = set()

    def request(self, stamp: Any, schema: str, instance: str) -> None:
        if instance in self._released:
            # Re-acquisition (e.g. a region re-executed after rollback):
            # retire the old request so the new stamp takes effect.
            self._requests = [e for e in self._requests if e[2] != instance]
            self._released.discard(instance)
        if not any(inst == instance for __, __s, inst in self._requests):
            self._requests.append((stamp, schema, instance))
            self._requests.sort(key=lambda e: (e[0], e[2]))

    def release(self, instance: str) -> None:
        self._released.add(instance)

    def holder(self) -> tuple[str, str] | None:
        for __, schema, instance in self._requests:
            if instance not in self._released:
                return (schema, instance)
        return None

    def waiting(self) -> int:
        return sum(1 for __, __s, i in self._requests if i not in self._released)
