"""Run-time cores for the coordinated-execution building blocks.

Section 3 of the paper introduces three building blocks — *relative
ordering*, *mutual exclusion* and *rollback dependency* — enforced at run
time through the ``AddRule()`` / ``AddEvent()`` / ``AddPrecondition()``
primitives.  In centralized control the enforcement state lives inside the
engine; in distributed control it lives at a deterministic *authority*
agent ("the first pair of conflicting steps is established by the agents
via the AddRule() workflow interface", Figure 4), and clearances flow back
to waiting agents as ``AddEvent()`` calls.

The classes here are transport-free state machines.  Engines wire them up:

* a **governed step** completion is *reported* to the authority;
* before executing a governed step, the executor adds a precondition event
  to the step's rule and *requests clearance*; the authority grants it
  immediately or when the blocking condition clears;
* instance abort/withdrawal releases whatever the instance held.

Conflict binding follows :mod:`repro.model.coordination_spec`: two
instances conflict when their ``conflict_key`` data item values are equal
(or always, when the spec has no key).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Hashable

from repro.errors import CoordinationError
from repro.model.coordination_spec import (
    MutualExclusionSpec,
    RelativeOrderSpec,
    RollbackDependencySpec,
)
from repro.rules.events import external_event

__all__ = [
    "MutualExclusionAuthority",
    "RelativeOrderAuthority",
    "RollbackDependencyAuthority",
    "mx_clearance_token",
    "ro_clearance_token",
]


def ro_clearance_token(spec_name: str, pair_index: int, instance_id: str) -> str:
    """Precondition event granting instance ``instance_id`` pair ``pair_index``."""
    return external_event(f"RO.{spec_name}.{pair_index}.{instance_id}")


def mx_clearance_token(spec_name: str, instance_id: str) -> str:
    """Precondition event granting the mutual-exclusion region."""
    return external_event(f"MX.{spec_name}.{instance_id}")


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
    #: Registration counter; breaks ``seq`` ties by arrival order.
    arrival: int

    @property
    def entry(self) -> tuple[Any, int, str]:
        """Sort entry of this registration inside its bucket."""
        return (self.seq, self.arrival, self.instance)


@dataclass(frozen=True)
class ClearanceGrant:
    """A clearance the transport layer must now deliver."""

    schema: str
    instance: str
    pair_index: int
    token: str


class _Bucket:
    """The registrations of one conflict key on one schema side.

    ``entries`` holds ``(seq, arrival, instance)`` in leadership order.
    ``marks[k]`` is a completed-prefix watermark: every entry before it
    has completed pair ``k``.  Marks advance lazily, when a clearance
    request scans the bucket, and shift when entries are inserted or
    removed in front of them.
    """

    __slots__ = ("entries", "marks")

    def __init__(self) -> None:
        self.entries: list[tuple[Any, int, str]] = []
        self.marks: dict[int, int] = {}

    def insert(self, entry: tuple[Any, int, str], done: set[int] | tuple) -> None:
        pos = bisect.bisect_left(self.entries, entry)
        self.entries.insert(pos, entry)
        for pair, mark in self.marks.items():
            if pos < mark:
                self.marks[pair] = mark + 1 if pair in done else pos

    def remove(self, entry: tuple[Any, int, str]) -> None:
        pos = bisect.bisect_left(self.entries, entry)
        del self.entries[pos]
        for pair, mark in self.marks.items():
            if pos < mark:
                self.marks[pair] = mark - 1

    def ahead_of(self, seq: Any) -> list[tuple[Any, int, str]]:
        """Entries whose ``seq`` is strictly below ``seq``."""
        # ``(seq,)`` sorts before every entry ``(seq, arrival, instance)``.
        return self.entries[: bisect.bisect_left(self.entries, (seq,))]

    def not_done_ahead_of(
        self, seq: Any, pair: int, done: dict[str, set[int]]
    ) -> list[str]:
        """Instances ahead of ``seq`` that have not completed ``pair``."""
        entries = self.entries
        end = bisect.bisect_left(entries, (seq,))
        mark = self.marks.get(pair, 0)
        while mark < end and pair in done.get(entries[mark][2], ()):
            mark += 1
        self.marks[pair] = mark
        return [
            instance for __, __a, instance in entries[mark:end]
            if pair not in done.get(instance, ())
        ]


class _Waiter:
    """A pending clearance of one (schema, instance, pair) and the leaders
    whose pair completion it still waits on.  Duplicate requests share the
    waiter; ``ids`` holds each request's place in the pending order."""

    __slots__ = ("schema", "instance", "pair", "blockers", "ids")

    def __init__(self, schema: str, instance: str, pair: int, blockers: set[str]):
        self.schema = schema
        self.instance = instance
        self.pair = pair
        self.blockers = blockers
        self.ids: list[int] = []


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

    Leading/lagging is a total order within one conflict binding, so the
    state is indexed by it.  Registrations live in buckets per conflict
    key (plus a wildcard bucket for ``None`` keys), split by schema side
    under a cross-schema spec, each sorted by ordering key and carrying a
    per-pair completed-prefix watermark.  A clearance request computes
    its outstanding leaders once, scanning only past the watermark; the
    pending request is then indexed under each (leader, pair) completion
    it waits on, so a completion or withdrawal wakes exactly the requests
    it unblocks.
    """

    def __init__(self, spec: RelativeOrderSpec):
        self.spec = spec
        self._cross = spec.schema_a != spec.schema_b
        self._seq = 0
        self._arrivals = 0
        self._registrations: dict[str, _Registration] = {}
        #: Completed pair indices by instance.
        self._done: dict[str, set[int]] = {}
        #: Buckets by conflict key, then by schema side (None when the spec
        #: orders one schema against itself); ``_wild`` holds ``None`` keys.
        self._keyed: dict[Hashable, dict[str | None, _Bucket]] = {}
        self._wild: dict[str | None, _Bucket] = {}
        #: Pending grants by request number (the order they are granted in).
        self._pending: dict[int, ClearanceGrant] = {}
        self._requests = 0
        #: Waiters by lagging instance, then by (schema, pair).
        self._waiters: dict[str, dict[tuple[str, int], _Waiter]] = {}
        #: Waiters by the leader and pair whose completion they wait on.
        self._blocking: dict[str, dict[int, dict[_Waiter, None]]] = {}

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
        self._arrivals += 1
        reg = _Registration(schema, instance, key, order_key, self._arrivals)
        self._registrations[instance] = reg
        group = self._wild if key is None else self._keyed.setdefault(key, {})
        side = schema if self._cross else None
        bucket = group.get(side)
        if bucket is None:
            bucket = group[side] = _Bucket()
        bucket.insert(reg.entry, self._done.get(instance, ()))
        if self._waiters:
            self._block_later_waiters(reg)

    def _block_later_waiters(self, reg: _Registration) -> None:
        """Make a late registrant a blocker of the pending requests it leads.

        In replicated mode an ordering key can arrive below keys already
        registered; the newcomer then leads those conflicting registrants.
        """
        done = self._done.get(reg.instance, ())
        entry = reg.entry
        for bucket in self._buckets_for(reg.key):
            entries = bucket.entries
            # ``entry`` has the highest arrival, so this skips equal seqs.
            for __, __a, instance in entries[bisect.bisect_right(entries, entry):]:
                for waiter in self._waiters.get(instance, {}).values():
                    if waiter.pair in done or (
                        self._cross and waiter.schema == reg.schema
                    ):
                        continue
                    waiter.blockers.add(reg.instance)
                    self._blocking.setdefault(reg.instance, {}).setdefault(
                        waiter.pair, {}
                    )[waiter] = None

    def _registered(self, instance: str) -> _Registration:
        mine = self._registrations.get(instance)
        if mine is None:
            raise CoordinationError(
                f"instance {instance!r} requested ordering before registering "
                f"its first governed step under spec {self.spec.name!r}"
            )
        return mine

    def _buckets_for(self, key: Hashable | None, schema: str | None = None) -> list[_Bucket]:
        """Buckets of registrations that conflict with ``key``; under a
        cross-schema spec, minus the buckets of ``schema`` itself."""
        if key is None:
            groups = [self._wild, *self._keyed.values()]
        else:
            groups = [self._wild, self._keyed.get(key, {})]
        skip = schema if self._cross else None
        return [
            bucket for group in groups for side, bucket in group.items()
            if skip is None or side != skip
        ]

    def leaders_of(self, schema: str, instance: str) -> list[_Registration]:
        """Conflicting instances registered before ``instance``."""
        mine = self._registered(instance)
        leaders = [
            self._registrations[other]
            for bucket in self._buckets_for(mine.key, schema)
            for __, __a, other in bucket.ahead_of(mine.seq)
        ]
        return sorted(leaders, key=lambda r: (r.seq, r.arrival))

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
        done = self._done.setdefault(instance, set())
        if pair_index in done:
            return []
        done.add(pair_index)
        by_pair = self._blocking.get(instance)
        if by_pair is None or pair_index not in by_pair:
            return []
        waiters = by_pair.pop(pair_index)
        if not by_pair:
            del self._blocking[instance]
        return self._release(self._unblocked(instance, waiters))

    def request_clearance(
        self, schema: str, instance: str, pair_index: int, key: Hashable | None
    ) -> ClearanceGrant | None:
        """Ask to execute pair step ``pair_index``; returns the grant if it
        can proceed now, otherwise records it as pending."""
        grant = ClearanceGrant(
            schema,
            instance,
            pair_index,
            ro_clearance_token(self.spec.name, pair_index, instance),
        )
        if pair_index == 0:
            # First pair executes freely; order is established by its completion.
            return grant
        waiter = self._waiters.get(instance, {}).get((schema, pair_index))
        if waiter is None:
            mine = self._registered(instance)
            blockers = {
                leader
                for bucket in self._buckets_for(mine.key, schema)
                for leader in bucket.not_done_ahead_of(mine.seq, pair_index, self._done)
            }
            if not blockers:
                return grant
            waiter = _Waiter(schema, instance, pair_index, blockers)
            self._waiters.setdefault(instance, {})[(schema, pair_index)] = waiter
            for leader in blockers:
                self._blocking.setdefault(leader, {}).setdefault(pair_index, {})[waiter] = None
        self._requests += 1
        waiter.ids.append(self._requests)
        self._pending[self._requests] = grant
        return None

    def withdraw(self, instance: str) -> list[ClearanceGrant]:
        """Remove an aborted instance; may unblock lagging instances."""
        reg = self._registrations.pop(instance, None)
        if reg is not None:
            group = self._wild if reg.key is None else self._keyed[reg.key]
            side = reg.schema if self._cross else None
            group[side].remove(reg.entry)
            if not group[side].entries:
                del group[side]
                if not group and reg.key is not None:
                    del self._keyed[reg.key]
        self._done.pop(instance, None)
        for waiter in self._waiters.pop(instance, {}).values():
            for leader in waiter.blockers:
                by_pair = self._blocking[leader]
                del by_pair[waiter.pair][waiter]
                if not by_pair[waiter.pair]:
                    del by_pair[waiter.pair]
                    if not by_pair:
                        del self._blocking[leader]
            for request in waiter.ids:
                del self._pending[request]
        woken = []
        for waiters in self._blocking.pop(instance, {}).values():
            woken.extend(self._unblocked(instance, waiters))
        return self._release(woken)

    # -- internals ------------------------------------------------------------------------

    @staticmethod
    def _unblocked(leader: str, waiters: dict[_Waiter, None]) -> list[_Waiter]:
        """Drop ``leader`` from the waiters' blockers; returns those now free."""
        free = []
        for waiter in waiters:
            waiter.blockers.discard(leader)
            if not waiter.blockers:
                free.append(waiter)
        return free

    def _release(self, waiters: list[_Waiter]) -> list[ClearanceGrant]:
        """Grants of freed waiters, in the order they were requested."""
        requests = []
        for waiter in waiters:
            mine = self._waiters[waiter.instance]
            del mine[(waiter.schema, waiter.pair)]
            if not mine:
                del self._waiters[waiter.instance]
            requests.extend(waiter.ids)
        requests.sort()
        return [self._pending.pop(request) for request in requests]

    # -- introspection ----------------------------------------------------------------------

    def registration_count(self) -> int:
        """Registered (leading or lagging) instances."""
        return len(self._registrations)

    def pending_count(self) -> int:
        """Clearance requests waiting on a leader, duplicates included."""
        return len(self._pending)

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

    def pairs_of(self, instance: str) -> list[tuple[str, str]]:
        """The :meth:`established_pairs` that involve ``instance``, in the
        same order."""
        mine = self._registrations.get(instance)
        if mine is None:
            return []
        entry = mine.entry
        others = sorted(
            other
            for bucket in self._buckets_for(mine.key, mine.schema)
            for other in bucket.entries
            if other[2] != instance
        )
        return [
            (other[2], instance) if other < entry else (instance, other[2])
            for other in others
        ]


class MutualExclusionAuthority:
    """FIFO region lock manager for one :class:`MutualExclusionSpec`."""

    def __init__(self, spec: MutualExclusionSpec):
        self.spec = spec
        self._holders: dict[Hashable, tuple[str, str]] = {}
        #: FIFO wait queues (insertion-ordered dicts); a key's entry goes
        #: when its queue empties.
        self._queues: dict[Hashable, dict[tuple[str, str], None]] = {}
        self._waiting = 0

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
        queue = self._queues.setdefault(lock, {})
        if (schema, instance) not in queue:
            queue[(schema, instance)] = None
            self._waiting += 1
        return False

    def release(self, schema: str, instance: str, key: Hashable | None) -> tuple[str, str] | None:
        """Release the lock; returns the next grantee, if any.

        Releasing a lock one doesn't hold (e.g. a rolled back region that
        never acquired it) silently drops any queued request instead.
        """
        lock = self._lock_key(key)
        queue = self._queues.get(lock)
        if self._holders.get(lock) != (schema, instance):
            if queue and (schema, instance) in queue:
                self._dequeue(lock, queue, (schema, instance))
            return None
        if queue:
            grantee = next(iter(queue))
            self._dequeue(lock, queue, grantee)
            self._holders[lock] = grantee
            return grantee
        del self._holders[lock]
        return None

    def _dequeue(
        self, lock: Hashable, queue: dict[tuple[str, str], None], entry: tuple[str, str]
    ) -> None:
        del queue[entry]
        self._waiting -= 1
        if not queue:
            del self._queues[lock]

    def holder(self, key: Hashable | None) -> tuple[str, str] | None:
        return self._holders.get(self._lock_key(key))

    def queue_length(self, key: Hashable | None) -> int:
        return len(self._queues.get(self._lock_key(key), ()))

    def waiting_count(self) -> int:
        """Requests queued behind a holder, over every key."""
        return self._waiting


class RollbackDependencyAuthority:
    """Tracks which instances must roll back when a trigger fires."""

    def __init__(self, spec: RollbackDependencySpec):
        self.spec = spec
        self._targets: dict[str, Hashable | None] = {}
        #: Target instances by conflict key; ``None`` keys conflict with all.
        self._by_key: dict[Hashable | None, set[str]] = {}

    def report_target_executed(self, instance: str, key: Hashable | None) -> None:
        """Instance of ``schema_b`` completed ``rollback_to_b``."""
        self.withdraw(instance)
        self._targets[instance] = key
        self._by_key.setdefault(key, set()).add(instance)

    def withdraw(self, instance: str) -> None:
        if instance not in self._targets:
            return
        key = self._targets.pop(instance)
        bucket = self._by_key[key]
        bucket.discard(instance)
        if not bucket:
            del self._by_key[key]

    def dependents_of(self, trigger_instance: str, key: Hashable | None) -> list[str]:
        """Conflicting instances to roll back when the trigger fires."""
        if key is None:
            candidates = self._targets.keys()
        else:
            candidates = self._by_key.get(key, set()) | self._by_key.get(None, set())
        return sorted(inst for inst in candidates if inst != trigger_instance)
