"""Loss-free JSON codecs for the governance journal (change records).

Every state-mutating command of the governed system crosses the
durability boundary as a versioned :class:`ChangeRecord` — the same
codec discipline the v1 protocol envelopes follow
(:mod:`repro.api.protocol`): plain dataclasses, explicit ``to_dict`` /
``from_dict`` pairs, no pickling. A record line is self-checking (CRC32
over its canonical JSON), so crash-torn tails are detected instead of
replayed.

What round-trips loss-free:

* releases ``R = ⟨w, G, F⟩`` — the subgraph travels as canonical
  N-Triples lines, ``F`` as an attribute→IRI map;
* :class:`~repro.wrappers.base.StaticWrapper` physical bindings
  (rows, projection — everything);
* evolution events (epoch, concepts, description, structure flags).

Wrappers backed by live systems (REST, Mongo) cannot cross a restart as
objects; :func:`encode_wrapper` *materializes* them — their rows at
journal time become a static binding on replay, so a recovered or
replicated node answers queries with the data the release shipped.
Wrappers whose rows are not JSON-safe degrade to an ``opaque`` payload:
the governed metadata still replays exactly (the ontology fingerprint
never depends on the physical binding), only the physical binding must
be re-attached by the operator.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, TYPE_CHECKING

from repro.core.ontology import EvolutionEvent
from repro.core.release import Release
from repro.errors import JournalCorruptedError
from repro.rdf.graph import Graph
from repro.rdf.ntriples import parse_ntriples
from repro.rdf.term import IRI

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.wrappers.base import Wrapper

__all__ = [
    "CODEC_VERSION", "ChangeRecord",
    "encode_record_line", "decode_record_line",
    "encode_release", "decode_release",
    "encode_wrapper", "decode_wrapper",
    "encode_event", "decode_event",
    "encode_graph", "decode_graph",
]

#: record-format generation; bump on incompatible payload changes
CODEC_VERSION = 1


@dataclass(frozen=True)
class ChangeRecord:
    """One serialized mutation command of the governed system.

    ``seq`` is the record's position in the journal (contiguous from 1,
    control records included); ``kind`` selects the replay applicator
    (:func:`repro.storage.journal.apply_record`); ``payload`` is the
    kind-specific JSON-safe body.
    """

    seq: int
    kind: str
    payload: dict[str, Any] = field(default_factory=dict)
    version: int = CODEC_VERSION

    def to_dict(self) -> dict[str, Any]:
        return {"v": self.version, "seq": self.seq, "kind": self.kind,
                "payload": self.payload}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ChangeRecord":
        return cls(seq=int(payload["seq"]), kind=str(payload["kind"]),
                   payload=dict(payload.get("payload") or {}),
                   version=int(payload.get("v", CODEC_VERSION)))


def _canonical(payload: dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def encode_record_line(record: ChangeRecord) -> str:
    """One journal line: the record dict plus its own CRC32.

    The CRC covers the canonical JSON of the crc-less record; since
    canonical encoding sorts keys and ``"crc"`` sorts first, the full
    line is assembled by splicing the checksum in front of the already
    serialized body — one ``json.dumps`` per append, not two.
    """
    inner = _canonical(record.to_dict())
    crc = zlib.crc32(inner.encode("utf-8"))
    return f'{{"crc":{crc},{inner[1:]}'


def decode_record_line(line: str) -> ChangeRecord:
    """Parse one journal line; raises on torn or corrupted lines.

    Raises :class:`~repro.errors.JournalCorruptedError` on any decoding
    failure — the *caller* decides whether the line was a crash-torn
    tail (truncate) or interior damage (refuse to replay).
    """
    try:
        body = json.loads(line)
    except ValueError:
        raise JournalCorruptedError(
            "journal line is not valid JSON") from None
    if not isinstance(body, dict):
        raise JournalCorruptedError("journal line is not a JSON object")
    crc = body.pop("crc", None)
    try:
        record = ChangeRecord.from_dict(body)
    except (KeyError, TypeError, ValueError):
        raise JournalCorruptedError(
            "journal line misses required record fields") from None
    expected = zlib.crc32(_canonical(record.to_dict()).encode("utf-8"))
    if crc != expected:
        raise JournalCorruptedError(
            f"journal record seq={record.seq} fails its checksum")
    return record


# ---------------------------------------------------------------------------
# Graph / release codecs
# ---------------------------------------------------------------------------


def encode_graph(graph: Graph) -> list[str]:
    """A graph as sorted canonical N-Triples lines (JSON-safe)."""
    return sorted(t.n3() for t in graph)


def decode_graph(lines: list[str]) -> Graph:
    return parse_ntriples("\n".join(lines))


def encode_release(release: Release,
                   absorbed_concepts: "Iterable[Any] | None" = None,
                   ) -> dict[str, Any]:
    """A release (plus its absorbed concepts) as a JSON-safe payload."""
    return {
        "wrapper_name": release.wrapper_name,
        "source_name": release.source_name,
        "id_attributes": list(release.id_attributes),
        "non_id_attributes": list(release.non_id_attributes),
        "subgraph": encode_graph(release.subgraph),
        "attribute_to_feature": {
            a: str(f) for a, f
            in sorted(release.attribute_to_feature.items())},
        "wrapper": encode_wrapper(release.wrapper),
        "absorbed_concepts": sorted(
            str(c) for c in (absorbed_concepts or ())),
    }


def decode_release(payload: Mapping[str, Any],
                   ) -> tuple[Release, frozenset[IRI] | None]:
    """Rebuild the ``(release, absorbed_concepts)`` pair of a payload."""
    release = Release(
        wrapper_name=str(payload["wrapper_name"]),
        source_name=str(payload["source_name"]),
        id_attributes=tuple(payload.get("id_attributes") or ()),
        non_id_attributes=tuple(payload.get("non_id_attributes") or ()),
        subgraph=decode_graph(list(payload.get("subgraph") or ())),
        attribute_to_feature={
            a: IRI(str(f)) for a, f
            in (payload.get("attribute_to_feature") or {}).items()},
        wrapper=decode_wrapper(payload.get("wrapper")),
    )
    absorbed = payload.get("absorbed_concepts") or ()
    return release, (frozenset(IRI(c) for c in absorbed)
                     if absorbed else None)


# ---------------------------------------------------------------------------
# Wrapper codec
# ---------------------------------------------------------------------------


def encode_wrapper(wrapper: "Wrapper | None") -> dict[str, Any] | None:
    """A physical wrapper as a durable payload (see module docstring).

    ``static`` round-trips loss-free; anything else is materialized —
    its rows at encode time become the replayed binding. Rows that are
    not JSON-serializable degrade the payload to ``opaque`` (metadata
    only, no physical binding on replay).
    """
    if wrapper is None:
        return None
    from repro.wrappers.base import StaticWrapper
    base = {
        "name": wrapper.name,
        "source": wrapper.source_name,
        "id_attributes": list(wrapper.id_attributes),
        "non_id_attributes": list(wrapper.non_id_attributes),
    }
    if type(wrapper) is StaticWrapper:
        payload = dict(base, type="static", rows=wrapper._rows,
                       projection=wrapper._projection or None)
    else:
        try:
            rows = wrapper.relation().rows
        except Exception:
            return dict(base, type="opaque")
        payload = dict(base, type="materialized", rows=rows)
    try:
        json.dumps(payload["rows"])
    except (TypeError, ValueError):
        return dict(base, type="opaque")
    return payload


def decode_wrapper(payload: Mapping[str, Any] | None) -> "Wrapper | None":
    """Rebuild the journaled physical binding (None for opaque)."""
    if payload is None or payload.get("type") == "opaque":
        return None
    from repro.wrappers.base import StaticWrapper
    projection = payload.get("projection") \
        if payload.get("type") == "static" else None
    return StaticWrapper(
        str(payload["name"]), str(payload["source"]),
        id_attributes=list(payload.get("id_attributes") or ()),
        non_id_attributes=list(payload.get("non_id_attributes") or ()),
        rows=list(payload.get("rows") or ()),
        projection=projection)


# ---------------------------------------------------------------------------
# Evolution-event codec (snapshots)
# ---------------------------------------------------------------------------


def encode_event(event: EvolutionEvent) -> dict[str, Any]:
    return {
        "epoch": event.epoch,
        "concepts": sorted(str(c) for c in event.concepts),
        "description": event.description,
        "structure": event.structure,
        "ungoverned": event.ungoverned,
    }


def decode_event(payload: Mapping[str, Any]) -> EvolutionEvent:
    return EvolutionEvent(
        epoch=int(payload["epoch"]),
        concepts=frozenset(IRI(c) for c in payload.get("concepts") or ()),
        description=str(payload.get("description", "")),
        structure=int(payload.get("structure", 0)),
        ungoverned=bool(payload.get("ungoverned", False)))
