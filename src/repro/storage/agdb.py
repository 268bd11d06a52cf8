"""The agent database (AGDB) of distributed workflow control.

"Each agent has an agent database (AGDB) (on the same node) in which they
store all relevant persistent information such as the steps that it has
executed and the corresponding results and so forth.  This database also
has information about agents responsible for running the steps of the
various workflows."

The AGDB therefore holds:

* **instance fragments** — the agent's partial view of each workflow
  instance it participates in (assembled from workflow packets);
* the **agent directory** — ``(schema, step) -> eligible agents``, used to
  route packets, halt probes and compensation requests;
* the **coordination summary table** — for instances this agent
  *coordinates*: status rows serving front-end requests;
* **purge bookkeeping** — committed-instance ids broadcast periodically so
  agents "can purge their instance tables".

Everything is WAL-backed; a crashed agent replays the log in
``on_recover`` and resumes (volatile rule engines are rebuilt by the agent
node from the recovered fragments).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.errors import StorageError
from repro.storage.tables import InstanceState, InstanceStatus
from repro.storage.wal import WriteAheadLog

__all__ = ["AgentDatabase"]


class AgentDatabase:
    """Durable per-agent store for distributed workflow control."""

    def __init__(self, agent_name: str):
        self.agent_name = agent_name
        self.wal = WriteAheadLog()
        self._fragments: dict[str, InstanceState] = {}
        self._directory: dict[tuple[str, str], tuple[str, ...]] = {}
        self._summary: dict[str, InstanceStatus] = {}
        self._purged: set[str] = set()
        self._trackers: dict[str, Mapping[str, Any]] = {}

    # -- instance fragments ------------------------------------------------------

    def fragment(self, instance_id: str) -> InstanceState:
        try:
            return self._fragments[instance_id]
        except KeyError:
            raise StorageError(
                f"agent {self.agent_name!r} has no state for instance {instance_id!r}"
            ) from None

    def has_fragment(self, instance_id: str) -> bool:
        return instance_id in self._fragments

    def ensure_fragment(
        self, schema_name: str, instance_id: str, inputs: Mapping[str, Any] | None = None
    ) -> InstanceState:
        state = self._fragments.get(instance_id)
        if state is None:
            state = InstanceState(
                schema_name=schema_name,
                instance_id=instance_id,
                inputs=dict(inputs or {}),
            )
            self._fragments[instance_id] = state
        return state

    def fragments(self) -> tuple[InstanceState, ...]:
        return tuple(self._fragments.values())

    def persist_fragment(self, state: InstanceState) -> None:
        self.wal.append("fragment_snapshot", state.snapshot())

    def purge_instances(self, instance_ids: Iterable[str]) -> int:
        """Drop fragments of committed instances (purge broadcast handler)."""
        purged = 0
        dropped = False
        for instance_id in instance_ids:
            if self._fragments.pop(instance_id, None) is not None:
                purged += 1
            self._purged.add(instance_id)
            if self._trackers.pop(instance_id, None) is not None:
                dropped = True
        if purged or dropped:
            # The purge must be durable whenever it dropped *any* state —
            # fragments or tracker snapshots — or recovery resurrects it.
            self.wal.append("purge", {"instance_ids": sorted(self._purged)})
        return purged

    def was_purged(self, instance_id: str) -> bool:
        return instance_id in self._purged

    # -- agent directory -----------------------------------------------------------

    def set_eligible_agents(
        self, schema_name: str, step: str, agents: Iterable[str]
    ) -> None:
        names = tuple(agents)
        if not names:
            raise StorageError(f"step {schema_name}.{step} needs at least one agent")
        self._directory[(schema_name, step)] = names

    def eligible_agents(self, schema_name: str, step: str) -> tuple[str, ...]:
        try:
            return self._directory[(schema_name, step)]
        except KeyError:
            raise StorageError(
                f"agent {self.agent_name!r}: no eligible agents recorded for "
                f"{schema_name}.{step}"
            ) from None

    # -- coordination instance summary table ---------------------------------------------

    def set_summary(self, instance_id: str, status: InstanceStatus) -> None:
        self._summary[instance_id] = status
        self.wal.append(
            "summary", {"instance_id": instance_id, "status": status.value}
        )

    def summary(self, instance_id: str) -> InstanceStatus:
        try:
            return self._summary[instance_id]
        except KeyError:
            raise StorageError(
                f"agent {self.agent_name!r} does not coordinate instance "
                f"{instance_id!r}"
            ) from None

    def has_summary(self, instance_id: str) -> bool:
        return instance_id in self._summary

    def coordinated_instances(self) -> tuple[str, ...]:
        return tuple(sorted(self._summary))

    # -- commit trackers ------------------------------------------------------------------

    def set_tracker(self, instance_id: str, snapshot: Mapping[str, Any]) -> None:
        """Persist a coordination-agent commit-tracker snapshot.

        Terminal reports consumed before a coordination-agent crash would
        otherwise be unrecoverable — the reporting agents never re-send —
        so the tracker is part of the "relevant persistent information"
        the AGDB stores.
        """
        self._trackers[instance_id] = snapshot
        self.wal.append("tracker", {"instance_id": instance_id, "tracker": snapshot})

    def recovered_tracker(self, instance_id: str) -> Mapping[str, Any] | None:
        """Latest persisted tracker snapshot (None when never persisted)."""
        return self._trackers.get(instance_id)

    # -- crash recovery ---------------------------------------------------------------------

    def recover(self) -> int:
        """Rebuild fragments, summaries and trackers from the WAL; keeps the
        directory (static routing data installed at deployment time).
        Record checksums are verified — a corrupt log fails loudly."""
        self._fragments.clear()
        self._summary.clear()
        self._purged.clear()
        self._trackers.clear()
        latest: dict[str, Mapping[str, Any]] = {}
        summaries: dict[str, InstanceStatus] = {}
        trackers: dict[str, Mapping[str, Any]] = {}
        purged: set[str] = set()

        def on_fragment(payload: Mapping[str, Any]) -> None:
            latest[payload["instance_id"]] = payload

        def on_summary(payload: Mapping[str, Any]) -> None:
            summaries[payload["instance_id"]] = InstanceStatus(payload["status"])

        def on_tracker(payload: Mapping[str, Any]) -> None:
            trackers[payload["instance_id"]] = payload["tracker"]

        def on_purge(payload: Mapping[str, Any]) -> None:
            purged.update(payload["instance_ids"])

        self.wal.replay(
            {"fragment_snapshot": on_fragment, "summary": on_summary,
             "tracker": on_tracker, "purge": on_purge},
            verify=True,
        )
        for instance_id, payload in latest.items():
            if instance_id not in purged:
                self._fragments[instance_id] = InstanceState.from_snapshot(payload)
        self._summary.update(summaries)
        self._trackers = {
            iid: snap for iid, snap in trackers.items() if iid not in purged
        }
        self._purged = purged
        return len(self._fragments)

    def replay_clone(self) -> "AgentDatabase":
        """A fresh AGDB rebuilt purely from this database's WAL.

        Used by the chaos harness's WAL-convergence check: replaying the
        log into a clean database must reproduce the durable state.  The
        directory is copied (deployment-time static data, never logged).
        """
        clone = AgentDatabase(self.agent_name)
        clone._directory = dict(self._directory)
        clone.wal._records = list(self.wal._records)
        clone.wal._next_lsn = self.wal._next_lsn
        clone.recover()
        return clone
