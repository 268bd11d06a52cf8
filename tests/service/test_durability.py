"""Crash durability: the service WAL and the recovery boot path.

The kill -9 acceptance itself lives in ``scripts/serve_chaos.py`` (real
subprocesses, real SIGKILL); these tests cover the same machinery
in-process — log round-trips, torn tails, mid-log corruption, document
re-install, in-flight re-drive with alias resolution, and the
at-most-once outcome guarantee.
"""

import asyncio
import json
import zlib

import pytest

from repro.errors import StorageError
from repro.service import WorkflowService
from repro.service.durability import ServiceLog, ServiceState
from repro.storage.wal import record_checksum

MINI_SCHEMA = {
    "name": "Mini",
    "inputs": ["x"],
    "steps": [
        {"name": "A", "outputs": ["y"], "cost": 1},
        {"name": "B", "inputs": ["A.y"], "outputs": ["z"]},
    ],
    "arcs": [{"src": "A", "dst": "B"}],
    "outputs": {"z": "B.z"},
}


async def wait_for(predicate, timeout=10.0, what="condition"):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        result = predicate()
        if result:
            return result
        await asyncio.sleep(0.02)
    raise AssertionError(f"{what} did not happen within {timeout}s")


# ---------------------------------------------------------------- ServiceLog


def test_service_log_roundtrip(tmp_path):
    log = ServiceLog(tmp_path)
    log.append("document", {"schema": {"name": "Mini"}})
    log.append("submit", {"instance": "Mini-1", "workflow": "Mini",
                          "inputs": {"x": 1}, "deadline": None})
    assert log.flush() == 2
    log.append("outcome", {"instance": "Mini-1", "status": "committed"})
    log.close()  # close flushes the tail

    reopened = ServiceLog(tmp_path)
    assert not reopened.torn_tail
    assert [r.kind for r in reopened.records()] == [
        "document", "submit", "outcome"
    ]
    assert reopened.last_lsn() == 3
    for record in reopened.records():
        assert record.verify()
    reopened.close()


def test_service_log_truncates_torn_tail(tmp_path):
    log = ServiceLog(tmp_path)
    log.append("submit", {"instance": "Mini-1"})
    log.append("submit", {"instance": "Mini-2"})
    log.close()
    # kill -9 mid-write: the final record is half a line of bytes.
    with open(log.path, "ab") as fh:
        fh.write(b'{"lsn": 3, "kind": "outcome", "payl')

    reopened = ServiceLog(tmp_path)
    assert reopened.torn_tail
    assert [r.payload["instance"] for r in reopened.records()] == [
        "Mini-1", "Mini-2"
    ]
    # The torn bytes are gone from disk; appending continues cleanly.
    reopened.append("outcome", {"instance": "Mini-1"})
    reopened.close()
    third = ServiceLog(tmp_path)
    assert not third.torn_tail
    assert third.last_lsn() == 3
    third.close()


def test_service_log_rejects_mid_log_corruption(tmp_path):
    log = ServiceLog(tmp_path)
    for index in range(3):
        log.append("submit", {"instance": f"Mini-{index + 1}"})
    log.close()
    lines = log.path.read_bytes().splitlines(keepends=True)
    lines[1] = b'{"corrupted": true}\n'
    log.path.write_bytes(b"".join(lines))

    with pytest.raises(StorageError) as excinfo:
        ServiceLog(tmp_path)
    assert "corruption" in str(excinfo.value)


def test_service_log_checksum_mismatch_is_corruption(tmp_path):
    log = ServiceLog(tmp_path)
    log.append("submit", {"instance": "Mini-1"})
    log.append("submit", {"instance": "Mini-2"})
    log.append("submit", {"instance": "Mini-3"})
    log.close()
    lines = log.path.read_bytes().splitlines(keepends=True)
    doc = json.loads(lines[1])
    doc["payload"]["instance"] = "Mini-999"  # payload no longer matches crc
    lines[1] = (json.dumps(doc, sort_keys=True) + "\n").encode()
    log.path.write_bytes(b"".join(lines))

    with pytest.raises(StorageError):
        ServiceLog(tmp_path)


#: Payloads covering what the line format must keep: nesting, key order,
#: non-ASCII text, tuples (written as lists), floats, and a value JSON
#: cannot encode (written through ``default=str``).
GOLDEN_RECORDS = [
    ("document", {"schema": {"name": "Mini", "steps": [{"b": 2, "a": 1}]}}),
    ("submit", {"workflow": "Mini", "instance": "Mini-1",
                "inputs": {"x": 1.5, "part": "Dichtung ß – ✓"},
                "deadline": None}),
    ("outcome", {"instance": "Mini-1", "status": "committed",
                 "outputs": {"z": (1, 2)}, "finished_at": 12.25}),
    ("fragment", {"instance": "Mini-1", "node": "n1",
                  "state": {"tags": frozenset({"x"}), "ok": True}}),
    ("redrive", {"original": "Mini-2", "replacement": "Mini-3"}),
]


def full_form_checksum(lsn, kind, payload):
    """crc32 of ``json.dumps`` of the whole ``[lsn, kind, payload]`` list."""
    blob = json.dumps([lsn, kind, payload], sort_keys=True, default=str)
    return zlib.crc32(blob.encode("utf-8"))


def full_form_line(lsn, kind, payload):
    """A record's line as ``json.dumps`` of the whole record produces it."""
    return json.dumps(
        {"lsn": lsn, "kind": kind, "payload": payload,
         "crc": full_form_checksum(lsn, kind, payload)},
        sort_keys=True, default=str,
    ) + "\n"


def test_service_log_bytes_match_the_full_record_encoding(tmp_path):
    log = ServiceLog(tmp_path)
    for kind, payload in GOLDEN_RECORDS:
        record = log.append(kind, payload)
        assert record.checksum == full_form_checksum(record.lsn, kind, payload)
        assert record.checksum == record_checksum(record.lsn, kind, payload)
    log.close()
    expected = "".join(full_form_line(lsn, kind, payload) for lsn, (kind, payload)
                       in enumerate(GOLDEN_RECORDS, start=1))
    assert log.path.read_bytes() == expected.encode("utf-8")


def test_service_log_loads_a_log_written_in_the_full_record_form(tmp_path):
    path = tmp_path / "service.wal"
    path.write_bytes("".join(
        full_form_line(lsn, kind, payload)
        for lsn, (kind, payload) in enumerate(GOLDEN_RECORDS, start=1)
    ).encode("utf-8"))
    log = ServiceLog(tmp_path)
    assert not log.torn_tail
    assert [r.kind for r in log.records()] == [k for k, __ in GOLDEN_RECORDS]
    assert all(record.verify() for record in log.records())
    assert log.append("outcome", {"instance": "Mini-3"}).lsn == len(GOLDEN_RECORDS) + 1
    log.close()
    assert not ServiceLog(tmp_path).torn_tail


# -------------------------------------------------------------- ServiceState


def test_service_state_replay_and_resolution():
    state_log_records = []

    class FakeRecord:
        def __init__(self, kind, payload):
            self.kind = kind
            self.payload = payload

    def rec(kind, **payload):
        state_log_records.append(FakeRecord(kind, payload))

    rec("document", schema={"name": "Mini"})
    rec("submit", instance="Mini-1", workflow="Mini", inputs={})
    rec("submit", instance="Mini-2", workflow="Mini", inputs={})
    rec("submit", instance="Mini-3", workflow="Mini", inputs={})
    rec("outcome", instance="Mini-1", status="committed")
    # Mini-2 was re-driven by a previous recovery, twice (two crashes).
    rec("redrive", original="Mini-2", replacement="Mini-4")
    rec("submit", instance="Mini-4", workflow="Mini", inputs={})
    rec("redrive", original="Mini-4", replacement="Mini-5")
    rec("submit", instance="Mini-5", workflow="Mini", inputs={})

    state = ServiceState.from_records(state_log_records)
    assert len(state.documents) == 1
    assert state.resolve("Mini-2") == "Mini-5"  # chain spans two crashes
    assert state.resolve("Mini-1") == "Mini-1"
    # In-flight = acknowledged, no outcome, not superseded: 3 and 5.
    assert [p["instance"] for p in state.inflight()] == ["Mini-3", "Mini-5"]
    assert state.max_instance_index() == 5


def test_service_state_rejects_unknown_kind():
    class FakeRecord:
        kind = "mystery"
        payload = {}

    with pytest.raises(StorageError):
        ServiceState.from_records([FakeRecord()])


# ---------------------------------------------------------- service recovery


def test_recovery_redrives_inflight_instances(tmp_path):
    # Phase 1: acknowledge submissions slow enough that nothing finishes,
    # then abandon the service without any shutdown hook (the loop dies
    # with asyncio.run) — the crash the WAL exists for.
    async def crash_phase():
        service = WorkflowService(work_time_scale=5.0, state_dir=tmp_path)
        service.start()
        result = service.submit(schema=MINI_SCHEMA, inputs={"x": 1},
                                instances=3)
        return result["instances"]

    originals = asyncio.run(crash_phase())
    assert len(originals) == 3

    async def recover_phase():
        service = WorkflowService(work_time_scale=0.001, state_dir=tmp_path)
        service.start()
        try:
            status = service.status()
            assert status["durable"] is True
            assert status["instances_redriven"] == 3
            # Every original id resolves through its redrive alias to a
            # *fresh* id (acknowledged ids are never reused)...
            for original in originals:
                replacement = service.resolve_instance(original)
                assert replacement != original
                assert replacement not in originals
            # ...and the re-driven instances run to an engine outcome.
            await wait_for(
                lambda: all(
                    service.instance(o)["status"] == "committed"
                    for o in originals
                ),
                what="re-driven instances committing",
            )
            record = service.instance(originals[0])
            assert record["instance"] == originals[0]
            assert record["resolved"] == service.resolve_instance(originals[0])
            # New submissions continue past the reserved id range.
            fresh = service.submit(workflow="Mini", inputs={"x": 9})
            assert fresh["instances"][0] not in originals
        finally:
            await service.close()

    asyncio.run(recover_phase())


def test_recovery_restores_finished_outcomes_at_most_once(tmp_path):
    async def commit_phase():
        service = WorkflowService(work_time_scale=0.001, state_dir=tmp_path)
        service.start()
        [iid] = service.submit(schema=MINI_SCHEMA,
                               inputs={"x": 1})["instances"]
        # Wait until the outcome watcher journals the terminal outcome
        # (its sweep also captures the engine-store fragments), then
        # abandon the service without closing it.
        await wait_for(
            lambda: any(r.kind == "outcome" for r in service._log.records()),
            what="outcome journaling",
        )
        return iid

    iid = asyncio.run(commit_phase())

    async def recover_phase():
        service = WorkflowService(work_time_scale=0.001, state_dir=tmp_path)
        service.start()
        try:
            status = service.status()
            assert status["instances_recovered"] == 1
            assert status["instances_redriven"] == 0
            record = service.instance(iid)
            # Served from the durable log: the engine never re-ran it.
            assert record["status"] == "committed"
            assert record["recovered"] is True
            assert iid not in service.system.outcomes
            # At-most-once: the log still holds exactly one outcome.
            outcomes = [r for r in service._log.records()
                        if r.kind == "outcome"]
            assert len(outcomes) == 1
        finally:
            await service.close()

    asyncio.run(recover_phase())


def test_outcome_journals_engine_fragments(tmp_path):
    async def main():
        service = WorkflowService(work_time_scale=0.001, state_dir=tmp_path)
        service.start()
        try:
            service.submit(schema=MINI_SCHEMA, inputs={"x": 1})
            await wait_for(
                lambda: any(r.kind == "fragment"
                            for r in service._log.records()),
                what="fragment journaling",
            )
            fragment = next(r for r in service._log.records()
                            if r.kind == "fragment")
            assert fragment.payload["node"]
            assert fragment.payload["state"]
        finally:
            await service.close()

    asyncio.run(main())


def test_memory_only_service_has_no_log():
    async def main():
        service = WorkflowService(work_time_scale=0.001)
        service.start()
        try:
            assert service.status()["durable"] is False
            [iid] = service.submit(schema=MINI_SCHEMA,
                                   inputs={"x": 1})["instances"]
            await wait_for(lambda: iid in service.system.outcomes,
                           what="commit")
        finally:
            await service.close()

    asyncio.run(main())
