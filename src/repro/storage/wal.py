"""Append-only write-ahead log providing simulated durability.

The paper's WFDB "provides the persistence necessary to facilitate forward
recovery in case of failure of the workflow engine", and each distributed
agent keeps an agent database "in which they store all relevant persistent
information".  In the simulation, durability means *surviving a node
crash*: a crashed node loses its in-memory tables but keeps its WAL, and
``on_recover`` replays the log to rebuild them.

Records are ``(lsn, kind, payload)``; payloads must be plain dict/list/
scalar structures (the stores only write snapshots, never live objects).

Two checksum forms exist.  :func:`record_checksum` (crc32 of canonical,
sorted-key JSON) is the *on-disk* form: :mod:`repro.service.durability`
writes it beside JSON lines and must recompute it after a JSON round
trip.  :func:`memory_checksum` (crc32 of the record's ``marshal``
version-2 bytes) is the *in-process* form this log stamps: the record
never leaves the process, so it need only be stable for the life of the
payload object, and it costs a fraction of the JSON encode.
"""

from __future__ import annotations

import json
import marshal
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping

from repro.errors import StorageError

__all__ = [
    "MemoryWalRecord", "WalRecord", "WriteAheadLog", "canonical_json",
    "encoded_checksum", "memory_checksum", "record_checksum",
]


def canonical_json(payload: Mapping[str, Any]) -> str:
    """The canonical JSON form of a payload: sorted keys, ``default=str``.

    ``default=str`` keeps enum-like payload values hashable; payloads are
    snapshots (never live objects), so the canonical form is stable for
    the record's lifetime.
    """
    return json.dumps(payload, sort_keys=True, default=str)


def record_checksum(lsn: int, kind: str, payload: Mapping[str, Any]) -> int:
    """Content checksum of one record (crc32 over a canonical JSON form)."""
    return encoded_checksum(lsn, kind, canonical_json(payload))


def encoded_checksum(lsn: int, kind: str, encoded_payload: str) -> int:
    """:func:`record_checksum` given the payload's :func:`canonical_json`.

    Hashes the bytes of ``json.dumps([lsn, kind, payload], sort_keys=True,
    default=str)``, built from the already-encoded payload so a writer
    that also needs that encoding (the service journal's line) pays for
    it once.
    """
    blob = f"[{lsn}, {json.dumps(kind)}, {encoded_payload}]"
    return zlib.crc32(blob.encode("utf-8"))


def memory_checksum(lsn: int, kind: str, payload: Mapping[str, Any]) -> int:
    """In-process checksum of one record (crc32 over ``marshal`` bytes).

    Version 2 is pinned: versions 3 and up write back-references for
    objects seen twice, so a payload sharing one sub-dict in two places
    would encode differently from an equal payload holding two copies.
    Version 2 encodes by content and insertion order only.  Values
    ``marshal`` refuses (enums, dict subclasses, nesting past its depth
    limit) fall back to :func:`record_checksum`.
    """
    try:
        return zlib.crc32(marshal.dumps((lsn, kind, payload), 2))
    except ValueError:
        return record_checksum(lsn, kind, payload)


@dataclass(frozen=True)
class WalRecord:
    lsn: int
    kind: str
    payload: Mapping[str, Any]
    checksum: int = 0

    def verify(self) -> bool:
        """Whether the stored checksum matches the record's content."""
        return self.checksum == record_checksum(self.lsn, self.kind, self.payload)


class MemoryWalRecord(WalRecord):
    """A :class:`WriteAheadLog` record, stamped with :func:`memory_checksum`."""

    def verify(self) -> bool:
        return self.checksum == memory_checksum(self.lsn, self.kind, self.payload)


class WriteAheadLog:
    """A durable, append-only sequence of records with checkpoint truncation."""

    #: Optional duck-typed profiler (see :class:`repro.obs.profile.
    #: Profiler`), set per-instance by ``Profiler.install``.  A class
    #: attribute so unprofiled logs pay one ``is None`` check per append.
    profile = None

    def __init__(self) -> None:
        self._records: list[MemoryWalRecord] = []
        self._next_lsn = 1
        self.appends = 0

    def append(self, kind: str, payload: Mapping[str, Any]) -> WalRecord:
        profile = self.profile
        if profile is not None:
            profile.push("wal.append")
        try:
            if not isinstance(payload, dict):
                raise StorageError(
                    f"WAL payload must be a dict, got {type(payload).__name__}"
                )
            lsn = self._next_lsn
            record = MemoryWalRecord(lsn=lsn, kind=kind, payload=payload,
                                     checksum=memory_checksum(lsn, kind, payload))
            self._next_lsn += 1
            self._records.append(record)
            self.appends += 1
            return record
        finally:
            if profile is not None:
                profile.pop()

    def verify(self) -> int:
        """Check every record's checksum; returns the count verified.

        Raises :class:`StorageError` naming the first corrupt LSN — a
        loud failure instead of the silent truncation / partial state a
        recovery from a damaged log would otherwise produce.
        """
        for record in self._records:
            if not record.verify():
                raise StorageError(
                    f"WAL corruption detected at lsn {record.lsn} "
                    f"(kind {record.kind!r}): checksum mismatch"
                )
        return len(self._records)

    def replay(
        self,
        handlers: Mapping[str, Callable[[Mapping[str, Any]], None]],
        strict: bool = True,
        verify: bool = False,
    ) -> int:
        """Replay all records through ``handlers`` (keyed by record kind).

        Returns the number of records replayed.  Unknown kinds raise when
        ``strict`` (a recovery that silently skips records is a corruption
        vector), otherwise they are ignored.  ``verify=True`` additionally
        checks each record's checksum before handing it to its handler.
        """
        profile = self.profile
        if profile is not None:
            profile.push("wal.replay")
        try:
            replayed = 0
            for record in self._records:
                if verify and not record.verify():
                    raise StorageError(
                        f"WAL corruption detected at lsn {record.lsn} "
                        f"(kind {record.kind!r}): checksum mismatch"
                    )
                handler = handlers.get(record.kind)
                if handler is None:
                    if strict:
                        raise StorageError(
                            f"no WAL replay handler for kind {record.kind!r}"
                        )
                    continue
                handler(record.payload)
                replayed += 1
            return replayed
        finally:
            if profile is not None:
                profile.pop()

    def checkpoint(self, keep_from_lsn: int) -> int:
        """Drop records with ``lsn < keep_from_lsn``; returns dropped count."""
        before = len(self._records)
        self._records = [r for r in self._records if r.lsn >= keep_from_lsn]
        return before - len(self._records)

    def last_lsn(self) -> int:
        return self._records[-1].lsn if self._records else 0

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[MemoryWalRecord]:
        return iter(self._records)
