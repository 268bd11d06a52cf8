"""The indexed coordination authorities against their linear-scan oracles.

Random operation sequences drive an indexed authority from
:mod:`repro.core.coordination` (or :class:`repro.engines.parallel.TimestampMutex`)
and its verbatim pre-indexing copy in :mod:`tests.core.reference_coordination`
side by side.  After every operation both must return the same value, in
the same order (grant lists included), and agree on every query.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.coordination import (
    MutualExclusionAuthority,
    RelativeOrderAuthority,
    RollbackDependencyAuthority,
)
from repro.engines.parallel import TimestampMutex
from repro.errors import CoordinationError
from repro.model.coordination_spec import (
    MutualExclusionSpec,
    RelativeOrderSpec,
    RollbackDependencySpec,
)
from tests.core import reference_coordination as reference

INSTANCES = ["i1", "i2", "i3", "i4", "i5", "i6"]
UNKNOWN = "ghost"  # never registered
KEYS = ["k1", "k2", None]
#: Each example is a seed for a whole random operation sequence.
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SETTINGS = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def ro_spec(cross: bool, keyed: bool) -> RelativeOrderSpec:
    return RelativeOrderSpec(
        name="ro", schema_a="A", schema_b="B" if cross else "A",
        steps_a=("S1", "S2", "S3"),
        steps_b=("T1", "T2", "T3") if cross else ("S1", "S2", "S3"),
        conflict_key="WF.k" if keyed else None,
    )


def outcome(call, *args, **kwargs):
    """A call's return value, or the exception type it raised."""
    try:
        return ("ok", call(*args, **kwargs))
    except CoordinationError:
        return ("raised", CoordinationError)


def leaders(authority, schema, instance):
    result = outcome(authority.leaders_of, schema, instance)
    if result[0] == "raised":
        return result
    return ("ok", [(r.schema, r.instance, r.key, r.seq) for r in result[1]])


def ro_ops(rng, cross: bool, keyed: bool, count: int = 60) -> list[tuple]:
    """A random operation sequence over a small instance pool.

    Each instance mostly keeps one schema and key, as in a real run, so
    leaders and laggers meet often; requests may repeat, pair-0 reports
    may be re-sent, and withdrawals hit leaders, laggers and unknown ids.
    """
    schemas = ["A", "B"] if cross else ["A"]
    keys = KEYS if keyed else [None]
    home = {i: (rng.choice(schemas), rng.choice(keys)) for i in INSTANCES}
    ops = []
    for __ in range(count):
        instance = rng.choice(INSTANCES)
        schema, key = home[instance]
        if rng.random() < 0.1:  # an off-profile call
            schema, key = rng.choice(schemas), rng.choice(keys)
        roll = rng.random()
        if roll < 0.3:
            ops.append(("report", schema, instance, 0, key, rng.randint(0, 9)))
        elif roll < 0.55:
            ops.append(("report", schema, instance, rng.randint(1, 2), key,
                        rng.randint(0, 9)))
        elif roll < 0.85:
            if rng.random() < 0.05:
                instance = UNKNOWN
            ops.append(("request", schema, instance, rng.choice([0, 1, 1, 2]), key))
        else:
            ops.append(("withdraw", UNKNOWN if rng.random() < 0.2 else instance))
    return ops


@settings(SETTINGS, max_examples=400)
@given(cross=st.booleans(), keyed=st.booleans(), order_keys=st.booleans(),
       seed=SEEDS)
def test_relative_order_matches_reference(cross, keyed, order_keys, seed):
    spec = ro_spec(cross, keyed)
    schemas = ["A", "B"] if cross else ["A"]
    new = RelativeOrderAuthority(spec)
    old = reference.RelativeOrderAuthority(spec)
    for op in ro_ops(random.Random(seed), cross, keyed):
        kind = op[0]
        if kind == "report":
            __, schema, instance, pair, key, time = op
            # Replicated mode: (time, id) keys arrive in any order.
            order_key = (time, instance) if order_keys else None
            got = outcome(new.report_completion, schema, instance, pair, key,
                          order_key=order_key)
            want = outcome(old.report_completion, schema, instance, pair, key,
                           order_key=order_key)
        elif kind == "request":
            __, schema, instance, pair, key = op
            got = outcome(new.request_clearance, schema, instance, pair, key)
            want = outcome(old.request_clearance, schema, instance, pair, key)
        else:
            got = outcome(new.withdraw, op[1])
            want = outcome(old.withdraw, op[1])
        assert got == want, op
        assert new.registration_count() == len(old._registrations)
        assert new.pending_count() == len(old._pending)
        pairs = old.established_pairs()
        assert new.established_pairs() == pairs
        for instance in INSTANCES + [UNKNOWN]:
            assert new.pairs_of(instance) == [p for p in pairs if instance in p]
            for schema in schemas:
                assert leaders(new, schema, instance) == leaders(old, schema, instance)
            for other in INSTANCES:
                assert new.is_leading(instance, other) == old.is_leading(instance, other)


@SETTINGS
@given(seed=SEEDS)
def test_mutual_exclusion_matches_reference(seed):
    rng = random.Random(seed)
    spec = MutualExclusionSpec(
        name="mx", schema_a="A", schema_b="B",
        region_a=("S1", "S2"), region_b=("T1", "T2"), conflict_key="WF.k",
    )
    new = MutualExclusionAuthority(spec)
    old = reference.MutualExclusionAuthority(spec)
    for __ in range(60):
        schema, instance = rng.choice("AB"), rng.choice(INSTANCES)
        key = rng.choice(KEYS)
        if rng.random() < 0.55:
            assert new.acquire(schema, instance, key) == old.acquire(schema, instance, key)
        else:
            assert new.release(schema, instance, key) == old.release(schema, instance, key)
        for probe in KEYS:
            assert new.holder(probe) == old.holder(probe)
            assert new.queue_length(probe) == old.queue_length(probe)
        assert new.waiting_count() == sum(len(q) for q in old._queues.values())
        # emptied queues leave nothing behind
        assert all(new._queues.values())


@SETTINGS
@given(seed=SEEDS)
def test_rollback_dependency_matches_reference(seed):
    rng = random.Random(seed)
    spec = RollbackDependencySpec(
        name="rd", schema_a="A", schema_b="B",
        trigger_step_a="S2", rollback_to_b="T1", conflict_key="WF.k",
    )
    new = RollbackDependencyAuthority(spec)
    old = reference.RollbackDependencyAuthority(spec)
    for __ in range(60):
        instance, key = rng.choice(INSTANCES), rng.choice(KEYS)
        if rng.random() < 0.7:
            new.report_target_executed(instance, key)
            old.report_target_executed(instance, key)
        else:
            new.withdraw(instance)
            old.withdraw(instance)
        trigger = rng.choice(INSTANCES)
        for probe in KEYS:
            assert new.dependents_of(trigger, probe) == old.dependents_of(trigger, probe)


@SETTINGS
@given(seed=SEEDS)
def test_timestamp_mutex_matches_reference(seed):
    rng = random.Random(seed)
    new = TimestampMutex()
    old = reference.TimestampMutex()
    for __ in range(60):
        instance = rng.choice(INSTANCES[:4])
        if rng.random() < 0.6:
            stamp, schema = (rng.randint(0, 9), instance), rng.choice("AB")
            new.request(stamp, schema, instance)
            old.request(stamp, schema, instance)
        else:
            new.release(instance)
            old.release(instance)
        assert new.holder() == old.holder()
        assert new.waiting() == old.waiting()
