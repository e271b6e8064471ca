"""Point-in-time snapshots of the governed state (fast restarts).

A snapshot is the journal's checkpoint: the full BDI ontology dataset
as canonical N-Quads, the evolution bookkeeping (epoch, event log,
pending-gap flag, per-graph mutation counts), the release history and
the journaled physical bindings — everything replay would reconstruct,
captured at one journal sequence number. Recovery then restores the
snapshot and replays only the journal suffix ``seq > snapshot.seq``,
which is what makes restart cost independent of history length.

Restores are fingerprint-exact: mutation counts are reinstated (the
structural fingerprint hashes them), and the pending-gap flag keeps
:meth:`~repro.core.ontology.BDIOntology.has_ungoverned_gap` truthful
across the restore. Snapshots are written atomically (temp file +
fsync + rename), so a crash mid-snapshot leaves the previous snapshot
intact.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.ontology import BDIOntology
from repro.core.release import Release
from repro.errors import SnapshotError
from repro.rdf.ntriples import parse_nquads, serialize_nquads
from repro.storage.codec import (
    CODEC_VERSION, decode_event, decode_release, decode_wrapper,
    encode_event, encode_release, encode_wrapper,
)

__all__ = ["Snapshot", "take_snapshot", "restore_state"]


@dataclass
class Snapshot:
    """One durable checkpoint of the governed state."""

    #: journal sequence number this snapshot covers (records with
    #: ``seq <= seq`` are folded in; replay resumes after it)
    seq: int
    #: the whole ontology dataset, named graphs included
    nquads: str
    epoch: int
    #: encoded evolution events (chronological)
    events: list[dict[str, Any]] = field(default_factory=list)
    #: True when unattributed edits were pending at snapshot time
    pending_gap: bool = False
    #: per-graph mutation counts (fingerprint component)
    mutation_counts: dict[str, int] = field(default_factory=dict)
    #: encoded release history (chronological)
    releases: list[dict[str, Any]] = field(default_factory=list)
    #: encoded physical bindings, keyed by wrapper name
    wrappers: dict[str, Any] = field(default_factory=dict)
    #: journaled idempotency outcomes (key -> {seq, epoch,
    #: triples_added}) — snapshots fold the release records in, so the
    #: recovery replay alone could never rebuild these
    idempotency: dict[str, Any] = field(default_factory=dict)
    version: int = CODEC_VERSION

    def to_dict(self) -> dict[str, Any]:
        return {
            "v": self.version,
            "seq": self.seq,
            "nquads": self.nquads,
            "epoch": self.epoch,
            "events": self.events,
            "pending_gap": self.pending_gap,
            "mutation_counts": self.mutation_counts,
            "releases": self.releases,
            "wrappers": self.wrappers,
            "idempotency": self.idempotency,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Snapshot":
        try:
            return cls(
                seq=int(payload["seq"]),
                nquads=str(payload["nquads"]),
                epoch=int(payload["epoch"]),
                events=list(payload.get("events") or ()),
                pending_gap=bool(payload.get("pending_gap", False)),
                mutation_counts={
                    str(k): int(v) for k, v
                    in (payload.get("mutation_counts") or {}).items()},
                releases=list(payload.get("releases") or ()),
                wrappers=dict(payload.get("wrappers") or {}),
                idempotency=dict(payload.get("idempotency") or {}),
                version=int(payload.get("v", CODEC_VERSION)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(
                f"snapshot payload is malformed: {exc}") from exc

    # -- persistence ---------------------------------------------------------

    def write(self, path: str | Path) -> None:
        """Atomically persist (temp file + fsync + rename)."""
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(self.to_dict(), handle, sort_keys=True)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError as exc:
            raise SnapshotError(
                f"cannot write snapshot {path}: {exc}") from exc

    @classmethod
    def read(cls, path: str | Path) -> "Snapshot":
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise SnapshotError(
                f"cannot read snapshot {path}: {exc}") from exc
        except ValueError as exc:
            raise SnapshotError(
                f"snapshot {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)


def take_snapshot(target: Any, seq: int) -> Snapshot:
    """Capture *target* (an MDM-shaped object) at journal seq *seq*.

    Must run with no concurrent mutation (the caller holds the service
    write lock, or owns the only reference) — a snapshot of a moving
    state would pin a fingerprint nothing ever exhibited.
    """
    ontology: BDIOntology = target.ontology
    outcomes = getattr(target, "recovered_idempotency", None)
    releases = [encode_release(r)
                for r in getattr(target, "release_log", ())]
    wrappers = {}
    for name in sorted(ontology._physical):
        encoded = encode_wrapper(ontology._physical[name])
        if encoded is not None:
            wrappers[name] = encoded
    return Snapshot(
        seq=seq,
        nquads=serialize_nquads(ontology.dataset),
        epoch=ontology.epoch,
        events=[encode_event(e) for e in ontology.evolution_since(0)],
        pending_gap=ontology.has_ungoverned_gap(),
        mutation_counts=ontology.dataset.mutation_counts(),
        releases=releases,
        wrappers=wrappers,
        idempotency=dict(outcomes.items()) if outcomes else {},
    )


def restore_state(snapshot: Snapshot,
                  ) -> tuple[BDIOntology, list[Release]]:
    """Rebuild ``(ontology, release_log)`` from a snapshot.

    The restored ontology is fingerprint-identical to the snapshotted
    one: every quad, every mutation count, the epoch, the event log and
    the pending-gap flag come back exactly.
    """
    ontology = BDIOntology(include_metamodel=False)
    parse_nquads(snapshot.nquads, into=ontology.dataset)
    ontology.dataset.restore_mutation_counts(snapshot.mutation_counts)
    ontology.restore_evolution_state(
        snapshot.epoch,
        (decode_event(e) for e in snapshot.events),
        pending_gap=snapshot.pending_gap)
    for payload in snapshot.wrappers.values():
        wrapper = decode_wrapper(payload)
        if wrapper is not None:
            ontology.bind_wrapper(wrapper)
    release_log = [decode_release(r)[0] for r in snapshot.releases]
    return ontology, release_log
