"""Crash-durable service state for ``repro serve --state-dir``.

The in-memory engine stores (:mod:`repro.storage`) give the *simulated*
nodes durability across injected crashes; this module gives the real
daemon durability across ``kill -9``.  :class:`ServiceLog` is a
file-backed append-only log of checksummed JSON-line records — the same
``(lsn, kind, payload, crc32)`` shape as :class:`repro.storage.wal.
WalRecord`, reusing :func:`repro.storage.wal.record_checksum` — with
group commit: ``append`` buffers, ``flush`` writes every buffered record
and fsyncs once, so one submission of N instances costs one disk sync.
``append`` encodes the payload once and derives both the checksum input
and the finished line from that one encoding.

Record kinds written by :class:`~repro.service.core.WorkflowService`:

``document``
    One installed workflow document, verbatim (``laws`` source text or a
    ``schema`` JSON payload).  Replayed first on recovery so every
    workflow class exists before instances are re-driven.
``submit``
    One acknowledged instance (``instance``, ``workflow``, ``inputs``,
    optional ``deadline``).  Flushed *before* the HTTP response, so an
    acknowledged submission is always durable.
``outcome``
    One terminal instance outcome (``instance``, ``status``,
    ``outputs``, ``finished_at``).
``fragment``
    A per-instance engine-store snapshot (``instance``, ``node``,
    ``state``) captured at outcome time — the AGDB/WFDB fragment the
    paper's agents persist, for post-crash forensics.
``redrive``
    Recovery re-drove an in-flight instance under a fresh id
    (``original``, ``replacement``).  The original id is permanently
    retired; queries for it resolve through the redrive chain.

Torn tails are expected: ``kill -9`` can land mid-``write``.  On load,
a final line that fails to parse or checksum is truncated and reported
via :attr:`ServiceLog.torn_tail`; a *non*-final corrupt record raises
:class:`~repro.errors.StorageError` (silent mid-log corruption is a
recovery hazard, matching the in-memory WAL's ``verify`` contract).

Recovery semantics (documented honestly): committed outcomes are
**at-most-once** — a finished instance is never re-run, and a re-driven
instance gets a fresh id, so no instance id ever produces two outcomes.
Execution of *in-flight* work is **at-least-once**: steps an instance
completed before the crash run again under the replacement id (the
engines' OCR machinery handles intra-run crashes; a full-process kill
loses the engines' in-memory stores, so the service re-submits).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.errors import StorageError
from repro.storage.wal import WalRecord, canonical_json, encoded_checksum

__all__ = ["ServiceLog", "ServiceState"]

_LOG_NAME = "service.wal"


class ServiceLog:
    """Append-only, checksummed, group-flushed JSON-lines log on disk."""

    def __init__(self, state_dir: str | Path):
        directory = Path(state_dir)
        directory.mkdir(parents=True, exist_ok=True)
        self.path = directory / _LOG_NAME
        self._records: list[WalRecord] = []
        #: Finished lines of records appended since the last flush.
        self._buffer: list[str] = []
        self._next_lsn = 1
        #: True when load dropped a truncated final record (torn write).
        self.torn_tail = False
        self.appends = 0
        self.flushes = 0
        if self.path.exists():
            self._load()
        self._fh = open(self.path, "ab")

    # -- recovery load -----------------------------------------------------

    def _load(self) -> None:
        raw = self.path.read_bytes()
        lines = raw.split(b"\n")
        # Offsets of each line start, so a torn tail can be truncated away.
        offset = 0
        entries: list[tuple[int, bytes]] = []
        for line in lines:
            entries.append((offset, line))
            offset += len(line) + 1
        valid_end = 0
        last_index = max(
            (i for i, (__, line) in enumerate(entries) if line.strip()),
            default=-1,
        )
        for index, (start, line) in enumerate(entries):
            if not line.strip():
                continue
            record = self._parse_line(line)
            if record is None:
                if index == last_index:
                    self.torn_tail = True
                    break
                raise StorageError(
                    f"service log corruption in {self.path} at byte {start}: "
                    "unreadable record before end of log"
                )
            if record.lsn != self._next_lsn:
                raise StorageError(
                    f"service log {self.path} skips from lsn "
                    f"{self._next_lsn} to {record.lsn}"
                )
            self._records.append(record)
            self._next_lsn = record.lsn + 1
            valid_end = start + len(line) + 1
        if self.torn_tail:
            with open(self.path, "r+b") as fh:
                fh.truncate(valid_end)

    @staticmethod
    def _parse_line(line: bytes) -> WalRecord | None:
        try:
            doc = json.loads(line)
            record = WalRecord(
                lsn=int(doc["lsn"]), kind=str(doc["kind"]),
                payload=doc["payload"], checksum=int(doc["crc"]),
            )
        except (ValueError, KeyError, TypeError):
            return None
        return record if record.verify() else None

    # -- appending ---------------------------------------------------------

    def append(self, kind: str, payload: Mapping[str, Any]) -> WalRecord:
        """Buffer one record (assigning its LSN); durable after :meth:`flush`."""
        if not isinstance(payload, dict):
            raise StorageError(
                f"service log payload must be a dict, got {type(payload).__name__}"
            )
        lsn = self._next_lsn
        # One encode serves the checksum and the line; the line is
        # byte-identical to json.dumps of the record with sorted keys
        # (crc, kind, lsn, payload in that order).
        encoded = canonical_json(payload)
        checksum = encoded_checksum(lsn, kind, encoded)
        record = WalRecord(lsn=lsn, kind=kind, payload=dict(payload),
                           checksum=checksum)
        self._next_lsn += 1
        self._records.append(record)
        self._buffer.append(f'{{"crc": {checksum}, "kind": {json.dumps(kind)}, '
                            f'"lsn": {lsn}, "payload": {encoded}}}\n')
        self.appends += 1
        return record

    def flush(self) -> int:
        """Group commit: write every buffered record, one fsync.  Returns
        the number of records made durable."""
        if not self._buffer:
            return 0
        self._fh.write("".join(self._buffer).encode("utf-8"))
        self._fh.flush()
        os.fsync(self._fh.fileno())
        flushed = len(self._buffer)
        self._buffer.clear()
        self.flushes += 1
        return flushed

    # -- introspection -----------------------------------------------------

    def records(self) -> tuple[WalRecord, ...]:
        return tuple(self._records)

    def last_lsn(self) -> int:
        return self._records[-1].lsn if self._records else 0

    def __len__(self) -> int:
        return len(self._records)

    def close(self) -> None:
        self.flush()
        self._fh.close()


@dataclass
class ServiceState:
    """The replayed view of one :class:`ServiceLog` (recovery boot input)."""

    #: Installed documents, install order: ``{"laws": text}`` or
    #: ``{"schema": payload}``.
    documents: list[dict[str, Any]] = field(default_factory=list)
    #: instance id -> its ``submit`` payload.
    submissions: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: instance id -> its ``outcome`` payload.
    outcomes: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: original id -> replacement id (one hop; chains span incarnations).
    redrives: dict[str, str] = field(default_factory=dict)
    #: (instance, node) -> latest persisted engine-store snapshot.
    fragments: dict[tuple[str, str], dict[str, Any]] = field(default_factory=dict)

    @classmethod
    def from_records(cls, records: Iterable[WalRecord]) -> "ServiceState":
        state = cls()
        for record in records:
            payload = dict(record.payload)
            if record.kind == "document":
                state.documents.append(payload)
            elif record.kind == "submit":
                state.submissions[payload["instance"]] = payload
            elif record.kind == "outcome":
                state.outcomes[payload["instance"]] = payload
            elif record.kind == "redrive":
                state.redrives[payload["original"]] = payload["replacement"]
            elif record.kind == "fragment":
                state.fragments[(payload["instance"], payload["node"])] = payload
            else:
                raise StorageError(
                    f"unknown service log record kind {record.kind!r}"
                )
        return state

    def resolve(self, instance_id: str) -> str:
        """Follow the redrive chain to the id currently carrying the work."""
        seen = set()
        while instance_id in self.redrives:
            if instance_id in seen:  # pragma: no cover - defensive
                raise StorageError(
                    f"redrive cycle involving {instance_id!r}"
                )
            seen.add(instance_id)
            instance_id = self.redrives[instance_id]
        return instance_id

    def inflight(self) -> list[dict[str, Any]]:
        """Submissions needing a re-drive: acknowledged, no outcome, not
        already superseded by a redrive.  Submission (log) order."""
        return [
            payload
            for iid, payload in self.submissions.items()
            if iid not in self.outcomes and iid not in self.redrives
        ]

    def max_instance_index(self) -> int:
        """Highest numeric suffix across every acknowledged instance id.

        Instance ids are ``<schema>-<n>`` with one global counter; the
        recovery boot reserves past this so post-crash ids never collide
        with acknowledged pre-crash ids.
        """
        best = 0
        for iid in self.submissions:
            __, __, tail = iid.rpartition("-")
            if tail.isdigit():
                best = max(best, int(tail))
        return best
