"""Property tests for the engine WAL's in-process checksum.

:class:`WriteAheadLog` stamps records with :func:`memory_checksum`
(crc32 of ``marshal`` version-2 bytes, falling back to the canonical-JSON
:func:`record_checksum` for values ``marshal`` refuses).  These tests pin
what that scheme must keep: clean logs verify through every path, any
in-place change to a payload after append is caught, equal payloads
checksum equally however their objects are shared, and payloads outside
``marshal``'s reach still append and verify.
"""

import copy
import enum

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.wal import (
    MemoryWalRecord,
    WriteAheadLog,
    memory_checksum,
    record_checksum,
)

leaves = (st.none() | st.booleans() | st.integers()
          | st.floats(allow_nan=True) | st.text(max_size=8))
values = st.recursive(
    leaves,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=4)),
    max_leaves=20,
)
payloads = st.dictionaries(st.text(max_size=6), values, max_size=5)

#: A replacement leaf the strategies never generate, so it always differs.
SENTINEL = b"mutated"

SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def mutable_containers(value):
    """Every dict and list reachable from ``value``, outermost first."""
    found = []

    def walk(node):
        if isinstance(node, dict):
            found.append(node)
            children = node.values()
        elif isinstance(node, list):
            found.append(node)
            children = node
        elif isinstance(node, tuple):
            children = node
        else:
            return
        for child in children:
            walk(child)

    walk(value)
    return found


def fill(payload_list):
    wal = WriteAheadLog()
    for index, payload in enumerate(payload_list):
        wal.append(f"kind{index % 3}", payload)
    return wal


@SETTINGS
@given(payload_list=st.lists(payloads, min_size=1, max_size=5))
def test_clean_log_verifies_through_every_path(payload_list):
    wal = fill(payload_list)
    assert wal.verify() == len(payload_list)
    seen = []
    handlers = {f"kind{i}": seen.append for i in range(3)}
    assert wal.replay(handlers, verify=True) == len(payload_list)
    assert seen == payload_list
    for record in wal:
        assert isinstance(record, MemoryWalRecord)
        assert record.verify()


@SETTINGS
@given(payload_list=st.lists(payloads, min_size=1, max_size=4),
       data=st.data())
def test_any_nested_change_after_append_is_detected(payload_list, data):
    wal = fill(payload_list)
    victim = data.draw(st.integers(0, len(payload_list) - 1), label="record")
    containers = mutable_containers(payload_list[victim])
    target = data.draw(st.sampled_from(containers), label="container")
    action = data.draw(st.sampled_from(["replace", "add", "delete"]),
                       label="action")
    if isinstance(target, dict):
        keys = list(target)
        if action == "add":
            key = "added"
            while key in target:
                key += "+"
            target[key] = SENTINEL
        else:
            assume(keys)
            key = data.draw(st.sampled_from(keys), label="key")
            if action == "replace":
                target[key] = SENTINEL
            else:
                del target[key]
    else:
        if action == "add":
            target.append(SENTINEL)
        else:
            assume(target)
            index = data.draw(st.integers(0, len(target) - 1), label="index")
            if action == "replace":
                target[index] = SENTINEL
            else:
                del target[index]

    lsn = victim + 1
    with pytest.raises(StorageError, match=f"lsn {lsn} .*checksum mismatch"):
        wal.verify()
    with pytest.raises(StorageError, match="checksum mismatch"):
        wal.replay({f"kind{i}": lambda p: None for i in range(3)}, verify=True)
    assert not list(wal)[victim].verify()


@SETTINGS
@given(shared=st.dictionaries(st.text(max_size=6), values, max_size=4),
       lsn=st.integers(1, 10**6))
def test_shared_sub_dict_checksums_like_separate_copies(shared, lsn):
    aliased = {"a": shared, "b": shared, "c": [shared, shared]}
    separate = {"a": copy.deepcopy(shared), "b": copy.deepcopy(shared),
                "c": [copy.deepcopy(shared), copy.deepcopy(shared)]}
    assert (memory_checksum(lsn, "k", aliased)
            == memory_checksum(lsn, "k", separate))


class Colour(enum.Enum):
    RED = "red"


class TaggedDict(dict):
    pass


@pytest.mark.parametrize("payload", [
    {"colour": Colour.RED},
    {"nested": {"deep": [Colour.RED, 1]}},
    {"sub": TaggedDict(x=1)},
    TaggedDict(top=[1, 2]),
], ids=["enum", "nested-enum", "dict-subclass", "dict-subclass-payload"])
def test_unmarshallable_payloads_fall_back_and_verify(payload):
    wal = WriteAheadLog()
    record = wal.append("k", payload)
    assert record.checksum == record_checksum(1, "k", payload)
    assert record.verify()
    assert wal.verify() == 1
    assert wal.replay({"k": lambda p: None}, verify=True) == 1


def test_fallback_payload_change_is_detected():
    payload = {"colour": Colour.RED, "n": 1}
    wal = WriteAheadLog()
    wal.append("k", payload)
    payload["n"] = 2
    with pytest.raises(StorageError, match="lsn 1 .*checksum mismatch"):
        wal.verify()


def test_memory_checksum_binds_lsn_and_kind():
    checksum = memory_checksum(1, "a", {"v": 1})
    assert not MemoryWalRecord(2, "a", {"v": 1}, checksum).verify()
    assert not MemoryWalRecord(1, "b", {"v": 1}, checksum).verify()
    assert MemoryWalRecord(1, "a", {"v": 1}, checksum).verify()
