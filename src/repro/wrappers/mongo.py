"""Wrappers over the MongoDB-style document store.

Reproduces the paper's Code 2 pattern: an aggregation pipeline whose
``$project`` stage renames and computes the attributes the wrapper
exposes, e.g.::

    MongoWrapper(
        name="w1", source_name="D1",
        store=store, collection="vod",
        pipeline=[{"$project": {
            "_id": 0,
            "VoDmonitorId": "$monitorId",
            "lagRatio": {"$divide": ["$waitTime", "$watchTime"]},
        }}],
        id_attributes=["VoDmonitorId"],
        non_id_attributes=["lagRatio"],
    )

Pushdown: the wrapper expresses the requested columns as an *extra
pipeline stage* executed by the store itself — a trailing inclusion
``$project`` — exactly how a real MongoDB deployment would evaluate it
server-side. Outputs the pipeline computes beyond the wrapper's schema
never reach the relation.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.sources.document_store import DocumentStore, aggregate
from repro.wrappers.base import Wrapper, WrapperDeltas

__all__ = ["MongoWrapper"]

#: stages evaluated per document: running them over one changed document
#: yields exactly that document's contribution to the wrapper relation.
#: $sort/$skip/$limit/$group/$count see the whole stream, so pipelines
#: using them cannot serve exact deltas.
_PER_DOCUMENT_STAGES = frozenset({"$match", "$project", "$unwind"})


class MongoWrapper(Wrapper):
    """A wrapper whose query is a document-store aggregation pipeline."""

    def __init__(self, name: str, source_name: str, store: DocumentStore,
                 collection: str, pipeline: list[dict],
                 id_attributes: Iterable[str],
                 non_id_attributes: Iterable[str]) -> None:
        super().__init__(name, source_name, id_attributes,
                         non_id_attributes)
        self.store = store
        self.collection = collection
        self.pipeline = list(pipeline)

    def estimate_rows(self) -> int | None:
        if self.collection not in self.store:
            return None
        # Pipelines may expand ($unwind) or shrink ($match/$group) the
        # collection; its size is still the best zero-cost signal.
        return len(self.store.get_collection(self.collection))

    def data_version(self) -> int:
        if self.collection not in self.store:
            return 0
        return self.store.get_collection(self.collection).data_version

    def fetch_rows(self, columns: Sequence[str] | None = None) -> list[dict]:
        names = self.attributes if columns is None else columns
        projection = {"_id": 0, **dict.fromkeys(names, 1)}
        return self.store.get_collection(self.collection).aggregate(
            self.pipeline + [{"$project": projection}])

    # -- change-data-capture --------------------------------------------------

    def _per_document(self) -> bool:
        """Exact deltas need a per-document pipeline: each stage must
        map one input document to its own output rows independently."""
        return all(isinstance(stage, dict) and len(stage) == 1
                   and next(iter(stage)) in _PER_DOCUMENT_STAGES
                   for stage in self.pipeline)

    def delta_cursor(self) -> int:
        return self.data_version()

    def fetch_deltas(self, since: object) -> WrapperDeltas | None:
        if not self._per_document():
            return None
        if not isinstance(since, int) or isinstance(since, bool):
            return None
        if self.collection not in self.store:
            return None
        collection = self.store.get_collection(self.collection)
        records = collection.changes_since(since)
        if records is None:
            return None
        wanted = set(self.attributes)
        changes: list[tuple[int, dict]] = []
        for record in records:
            if record.op == "insert":
                images = [(+1, record.document)]
            elif record.op == "delete":
                images = [(-1, record.document)]
            else:  # update = retract old image, assert new one
                images = [(-1, record.before or {}),
                          (+1, record.document)]
            for sign, doc in images:
                for out in aggregate([doc], self.pipeline):
                    changes.append((sign, {k: v for k, v in out.items()
                                           if k in wanted}))
        version = collection.data_version
        return WrapperDeltas(tuple(changes), cursor=version,
                             data_version=version)
