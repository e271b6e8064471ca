"""An in-memory JSON document store with a MongoDB-style aggregation subset.

The paper's wrappers query MongoDB collections (Code 2 uses the Aggregation
Framework: ``$project`` with a renamed field and a computed ``$divide``).
This module simulates that substrate: collections hold JSON-like documents
(dicts, lists, scalars) and pipelines support the stages and operators the
wrappers need — and a few more, so examples and tests can exercise
realistic workloads.

Supported stages: ``$match``, ``$project``, ``$unwind``, ``$sort``,
``$skip``, ``$limit``, ``$group``, ``$count``.

Supported expression operators inside ``$project``/``$group``:
``$divide``, ``$multiply``, ``$add``, ``$subtract``, ``$concat``,
``$toString``, ``$toLower``, ``$toUpper``, ``$literal``, ``$ifNull``,
plus ``"$field.path"`` references.

Supported ``$match`` operators: equality, ``$eq``, ``$ne``, ``$gt``,
``$gte``, ``$lt``, ``$lte``, ``$in``, ``$nin``, ``$exists``, ``$regex``.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.errors import AggregationError, UnknownCollectionError

__all__ = ["DocumentStore", "Collection", "ChangeRecord", "aggregate",
           "CHANGE_LOG_LIMIT"]

Document = dict

#: bound on the per-collection CDC log: readers further behind than this
#: get ``None`` from :meth:`Collection.changes_since` and must fall back
#: to a full rescan — the log can never grow without bound.
CHANGE_LOG_LIMIT = 4096


@dataclass(frozen=True)
class ChangeRecord:
    """One entry of a collection's append-only change log.

    ``seq`` is the ``data_version`` the mutation advanced the collection
    to (mutations batched in one call share a seq). ``document`` is the
    post-image for inserts/updates and the pre-image for deletes;
    ``before`` carries the pre-image of an update. Images are deep
    copies — later mutations of the live document never rewrite history.
    """

    seq: int
    op: str  # "insert" | "update" | "delete"
    document: Document
    before: Document | None = None


def get_path(document: Any, path: str, missing: Any = None) -> Any:
    """Resolve a dotted path in a document; a missing segment gives
    *missing* (None by default)."""
    node = document
    for segment in path.split("."):
        if isinstance(node, dict):
            node = node.get(segment, missing)
        elif isinstance(node, list):
            try:
                node = node[int(segment)]
            except (ValueError, IndexError):
                return missing
        else:
            return missing
    return node


def _set_path(document: dict, path: str, value: Any) -> None:
    node = document
    parts = path.split(".")
    for segment in parts[:-1]:
        node = node.setdefault(segment, {})
    node[parts[-1]] = value


def _unset_path(document: dict, path: str) -> None:
    node: Any = document
    parts = path.split(".")
    for segment in parts[:-1]:
        node = node.get(segment) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            return
    node.pop(parts[-1], None)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def _eval_expr(expression: Any, document: Document) -> Any:
    """Evaluate a projection/group expression against a document."""
    if isinstance(expression, str):
        if expression.startswith("$"):
            return get_path(document, expression[1:])
        return expression
    if isinstance(expression, (int, float, bool)) or expression is None:
        return expression
    if isinstance(expression, list):
        return [_eval_expr(e, document) for e in expression]
    if isinstance(expression, dict):
        if len(expression) != 1:
            raise AggregationError(
                f"operator expression must have exactly one key: "
                f"{expression!r}")
        op, arg = next(iter(expression.items()))
        return _eval_operator(op, arg, document)
    raise AggregationError(f"unsupported expression {expression!r}")


def _numeric(value: Any, op: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise AggregationError(f"{op} expects numbers, got {value!r}")
    return value


def _eval_operator(op: str, arg: Any, document: Document) -> Any:
    if op == "$literal":
        return arg
    if op == "$divide":
        left, right = (_eval_expr(a, document) for a in arg)
        left, right = _numeric(left, op), _numeric(right, op)
        if right == 0:
            raise AggregationError("$divide by zero")
        return left / right
    if op == "$multiply":
        values = [_numeric(_eval_expr(a, document), op) for a in arg]
        result = 1.0
        for v in values:
            result *= v
        return result
    if op == "$add":
        return sum(_numeric(_eval_expr(a, document), op) for a in arg)
    if op == "$subtract":
        left, right = (_numeric(_eval_expr(a, document), op) for a in arg)
        return left - right
    if op == "$concat":
        parts = [_eval_expr(a, document) for a in arg]
        if any(p is None for p in parts):
            return None
        return "".join(str(p) for p in parts)
    if op == "$toString":
        value = _eval_expr(arg, document)
        return None if value is None else str(value)
    if op == "$toLower":
        value = _eval_expr(arg, document)
        return "" if value is None else str(value).lower()
    if op == "$toUpper":
        value = _eval_expr(arg, document)
        return "" if value is None else str(value).upper()
    if op == "$ifNull":
        value = _eval_expr(arg[0], document)
        return _eval_expr(arg[1], document) if value is None else value
    raise AggregationError(f"unsupported operator {op!r}")


# ---------------------------------------------------------------------------
# $match predicates
# ---------------------------------------------------------------------------

_COMPARATORS = {
    "$eq": lambda a, b: a == b,
    "$ne": lambda a, b: a != b,
    "$gt": lambda a, b: a is not None and a > b,
    "$gte": lambda a, b: a is not None and a >= b,
    "$lt": lambda a, b: a is not None and a < b,
    "$lte": lambda a, b: a is not None and a <= b,
}


def _matches(document: Document, query: dict) -> bool:
    for path, condition in query.items():
        if path == "$or":
            if not any(_matches(document, sub) for sub in condition):
                return False
            continue
        if path == "$and":
            if not all(_matches(document, sub) for sub in condition):
                return False
            continue
        value = get_path(document, path)
        if isinstance(condition, dict) and any(
                k.startswith("$") for k in condition):
            for op, expected in condition.items():
                if op in _COMPARATORS:
                    if not _COMPARATORS[op](value, expected):
                        return False
                elif op == "$in":
                    if value not in expected:
                        return False
                elif op == "$nin":
                    if value in expected:
                        return False
                elif op == "$exists":
                    if bool(value is not None) != bool(expected):
                        return False
                elif op == "$regex":
                    if value is None or not re.search(op and expected,
                                                      str(value)):
                        return False
                else:
                    raise AggregationError(
                        f"unsupported $match operator {op!r}")
        else:
            if value != condition:
                return False
    return True


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------


#: a path the document does not hold (``$project`` omits its field)
_MISSING = object()


def _stage_project(docs: Iterable[Document], spec: dict
                   ) -> Iterator[Document]:
    include_id = spec.get("_id", True)
    for doc in docs:
        out: Document = {}
        if include_id and "_id" in doc:
            out["_id"] = doc["_id"]
        for field, rule in spec.items():
            if field == "_id":
                continue
            if rule in (0, False):
                continue
            # MongoDB omits an included or referenced field the
            # document lacks, so a wrapper over it sees the drift.
            if rule in (1, True):
                value = get_path(doc, field, _MISSING)
            elif isinstance(rule, str) and rule.startswith("$"):
                value = get_path(doc, rule[1:], _MISSING)
            else:
                value = _eval_expr(rule, doc)
            if value is not _MISSING:
                _set_path(out, field, value)
        yield out


def _clone_along_path(document: dict, parts: list[str]) -> dict:
    """Shallow-copy *document* plus every dict on *parts*' prefix, so a
    later ``_set_path`` touches no structure shared with the input."""
    clone = dict(document)
    node = clone
    for segment in parts[:-1]:
        child = node.get(segment)
        if not isinstance(child, dict):
            break  # list index / missing segment: _set_path's territory
        child = dict(child)
        node[segment] = child
        node = child
    return clone


def _stage_unwind(docs: Iterable[Document], spec: Any
                  ) -> Iterator[Document]:
    path = spec if isinstance(spec, str) else spec.get("path")
    if not isinstance(path, str) or not path.startswith("$"):
        raise AggregationError(f"$unwind expects a '$path', got {spec!r}")
    path = path[1:]
    parts = path.split(".")
    for doc in docs:
        values = get_path(doc, path)
        if not isinstance(values, list):
            if values is not None:
                yield doc
            continue
        for item in values:
            # Clone the dicts along the unwound path: a top-level-only
            # copy would make every yielded row share (and _set_path
            # mutate) the *input document's* nested containers.
            clone = _clone_along_path(doc, parts)
            _set_path(clone, path, item)
            yield clone


def _stage_group(docs: Iterable[Document], spec: dict
                 ) -> Iterator[Document]:
    if "_id" not in spec:
        raise AggregationError("$group requires an _id expression")
    groups: dict[Any, Document] = {}
    counters: dict[Any, dict[str, list]] = {}
    for doc in docs:
        key = _eval_expr(spec["_id"], doc)
        hashable = repr(key)
        if hashable not in groups:
            groups[hashable] = {"_id": key}
            counters[hashable] = {field: [] for field in spec
                                  if field != "_id"}
        for field, accumulator in spec.items():
            if field == "_id":
                continue
            if not isinstance(accumulator, dict) or len(accumulator) != 1:
                raise AggregationError(
                    f"bad accumulator for {field!r}: {accumulator!r}")
            op, arg = next(iter(accumulator.items()))
            counters[hashable][field].append(
                1 if (op == "$sum" and arg == 1)
                else _eval_expr(arg, doc))
    for hashable, doc in groups.items():
        for field, accumulator in spec.items():
            if field == "_id":
                continue
            op, _ = next(iter(accumulator.items()))
            values = [v for v in counters[hashable][field] if v is not None]
            if op == "$sum":
                doc[field] = sum(values) if values else 0
            elif op == "$avg":
                doc[field] = sum(values) / len(values) if values else None
            elif op == "$min":
                doc[field] = min(values) if values else None
            elif op == "$max":
                doc[field] = max(values) if values else None
            elif op == "$count":
                doc[field] = len(counters[hashable][field])
            elif op == "$first":
                doc[field] = values[0] if values else None
            elif op == "$last":
                doc[field] = values[-1] if values else None
            elif op == "$push":
                doc[field] = counters[hashable][field]
            else:
                raise AggregationError(f"unsupported accumulator {op!r}")
        yield doc


def aggregate(documents: Iterable[Document],
              pipeline: list[dict]) -> list[Document]:
    """Run an aggregation *pipeline* over *documents*.

    Input documents are never mutated: stages either build fresh
    documents or pass references through, and the final materialization
    copies whatever survived. Filtering stages therefore never pay for
    copying documents they discard — a leading ``$match`` (how wrappers
    push ID filters down) touches only the surviving rows.
    """
    current: Iterable[Document] = documents
    for stage in pipeline:
        if not isinstance(stage, dict) or len(stage) != 1:
            raise AggregationError(
                f"each stage must be a single-key dict, got {stage!r}")
        name, spec = next(iter(stage.items()))
        if name == "$match":
            current = [d for d in current if _matches(d, spec)]
        elif name == "$project":
            current = list(_stage_project(current, spec))
        elif name == "$unwind":
            current = list(_stage_unwind(current, spec))
        elif name == "$sort":
            items = list(current)
            for field, direction in reversed(list(spec.items())):
                items.sort(key=lambda d: (get_path(d, field) is None,
                                          get_path(d, field)),
                           reverse=direction < 0)
            current = items
        elif name == "$skip":
            current = list(current)[spec:]
        elif name == "$limit":
            current = list(current)[:spec]
        elif name == "$group":
            current = list(_stage_group(current, spec))
        elif name == "$count":
            current = [{spec: len(list(current))}]
        else:
            raise AggregationError(f"unsupported stage {name!r}")
    return [dict(d) for d in current]


# ---------------------------------------------------------------------------
# Store / collections
# ---------------------------------------------------------------------------


class Collection:
    """A named list of documents with ``insert``/``find``/``aggregate``.

    Every mutation advances ``data_version`` and appends per-document
    :class:`ChangeRecord` entries to a bounded CDC log, so wrappers can
    serve exact row-level deltas between two versions
    (:meth:`changes_since`).
    """

    def __init__(self, name: str, start_version: int = 0,
                 change_log_limit: int = CHANGE_LOG_LIMIT) -> None:
        self.name = name
        self._documents: list[Document] = []
        self._next_id = 1
        self._data_version = start_version
        self._change_log_limit = change_log_limit
        self._log: list[ChangeRecord] = []
        #: readers whose cursor predates this version cannot be served
        #: from the log (records were trimmed, or the collection started
        #: at a floor inherited from a dropped incarnation)
        self._log_floor = start_version

    @property
    def data_version(self) -> int:
        """Monotonic mutation counter (scan caches key fetches by it)."""
        return self._data_version

    def _record(self, op: str, document: Document,
                before: Document | None = None) -> None:
        self._log.append(ChangeRecord(
            seq=self._data_version, op=op,
            document=copy.deepcopy(document),
            before=copy.deepcopy(before) if before is not None else None))
        while len(self._log) > self._change_log_limit:
            dropped = self._log.pop(0)
            self._log_floor = dropped.seq

    def insert_one(self, document: Document) -> Document:
        doc = dict(document)
        if "_id" not in doc:
            doc["_id"] = self._next_id
            self._next_id += 1
        self._documents.append(doc)
        self._data_version += 1
        self._record("insert", doc)
        # A *copy* goes back to the caller: handing out the stored dict
        # would let callers mutate documents in place, bypassing the
        # data_version bump that scan caches and the CDC log rely on.
        return dict(doc)

    def insert_many(self, documents: Iterable[Document]) -> int:
        count = 0
        for doc in documents:
            self.insert_one(doc)
            count += 1
        return count

    def find(self, query: dict | None = None) -> list[Document]:
        if not query:
            return [dict(d) for d in self._documents]
        return [dict(d) for d in self._documents if _matches(d, query)]

    def aggregate(self, pipeline: list[dict]) -> list[Document]:
        return aggregate(self._documents, pipeline)

    def update_many(self, query: dict | None, update: dict) -> int:
        """Apply ``$set``/``$unset``/``$inc`` to matching documents.

        The sanctioned in-place mutation path: each changed document
        bumps ``data_version`` and logs an update record carrying both
        images, so delta readers see it as (−old, +new).
        """
        unknown = set(update) - {"$set", "$unset", "$inc"}
        if unknown:
            raise AggregationError(
                f"unsupported update operators {sorted(unknown)}")
        updated = 0
        for doc in self._documents:
            if query and not _matches(doc, query):
                continue
            before = copy.deepcopy(doc)
            for path, value in update.get("$set", {}).items():
                _set_path(doc, path, value)
            for path in update.get("$unset", {}):
                _unset_path(doc, path)
            for path, delta in update.get("$inc", {}).items():
                current = get_path(doc, path)
                _set_path(doc, path, (current or 0) + delta)
            if doc != before:
                updated += 1
                self._data_version += 1
                self._record("update", doc, before=before)
        return updated

    def delete_many(self, query: dict | None = None) -> int:
        removed = [d for d in self._documents
                   if not query or _matches(d, query)]
        if not removed:
            return 0
        if not query:
            self._documents = []
        else:
            self._documents = [d for d in self._documents
                               if not _matches(d, query)]
        self._data_version += 1
        for doc in removed:
            self._record("delete", doc)
        return len(removed)

    def changes_since(self, version: int) -> list[ChangeRecord] | None:
        """Change records after *version*, oldest first.

        ``None`` means the log cannot reconstruct the interval — the
        cursor predates the bounded log (or this collection incarnation
        entirely), or comes from a future/foreign incarnation — and the
        caller must fall back to a full snapshot diff or rescan.
        """
        if version > self._data_version or version < self._log_floor:
            return None
        if version == self._data_version:
            return []
        return [r for r in self._log if r.seq > version]

    def __len__(self) -> int:
        return len(self._documents)


class DocumentStore:
    """A set of named collections (``db`` in MongoDB parlance)."""

    def __init__(self) -> None:
        self._collections: dict[str, Collection] = {}
        #: name → data_version floor a recreated collection must start
        #: above; without it a drop/recreate would restart data_version
        #: at 0 and scan caches keyed by (collection, version) would
        #: serve the dropped incarnation's rows as current
        self._version_floors: dict[str, int] = {}

    def collection(self, name: str) -> Collection:
        """Get or create a collection (Mongo's implicit-creation style)."""
        if name not in self._collections:
            self._collections[name] = Collection(
                name, start_version=self._version_floors.get(name, 0))
        return self._collections[name]

    def get_collection(self, name: str) -> Collection:
        """Strict accessor used by wrappers: missing collection = error."""
        try:
            return self._collections[name]
        except KeyError:
            raise UnknownCollectionError(
                f"collection {name!r} does not exist") from None

    def drop_collection(self, name: str) -> bool:
        dropped = self._collections.pop(name, None)
        if dropped is not None:
            self._version_floors[name] = dropped.data_version + 1
        return dropped is not None

    def __contains__(self, name: object) -> bool:
        return name in self._collections
