"""Wrappers over simulated REST endpoints.

A :class:`RestWrapper` pins one endpoint *version* (schema versions are
exactly what wrappers represent in the paper) and maps flattened JSON
fields onto the wrapper's attributes, optionally computing derived values.

Pushdown: the wrapper asks the endpoint for a *partial response*
(top-level field selection, the ``?fields=`` idiom) and prunes the
flattening walk to the needed paths. Derived attributes declare the
flat paths they read via *derived_inputs* — without that declaration a
fetch involving the derived attribute falls back to the full payload
(the relation still holds only the requested columns, so answers never
change).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import WrapperError
from repro.sources.rest_api import Endpoint
from repro.wrappers.base import Wrapper, WrapperDeltas
from repro.wrappers.json_flatten import flatten_documents

__all__ = ["RestWrapper"]

#: Computes a derived attribute from one flattened row.
DerivedField = Callable[[Mapping[str, Any]], Any]


class RestWrapper(Wrapper):
    """A wrapper querying one version of one REST endpoint.

    Parameters
    ----------
    field_map:
        attribute name → flattened JSON path (rename map).
    derived:
        attribute name → callable computing the value from the flat row
        (e.g. the paper's ``lagRatio = waitTime / watchTime``).
    derived_inputs:
        attribute name → flat paths the derived callable reads; declaring
        them keeps projection pushdown active for derived attributes.
    count / seed:
        how many documents the simulated endpoint serves, and the
        generation seed (kept deterministic for tests).
    """

    def __init__(self, name: str, source_name: str, endpoint: Endpoint,
                 version: str,
                 id_attributes: Iterable[str],
                 non_id_attributes: Iterable[str],
                 field_map: Mapping[str, str] | None = None,
                 derived: Mapping[str, DerivedField] | None = None,
                 derived_inputs: Mapping[str, Iterable[str]] | None = None,
                 unwind: Iterable[str] = (),
                 count: int = 10, seed: int = 0) -> None:
        super().__init__(name, source_name, id_attributes,
                         non_id_attributes)
        self.endpoint = endpoint
        self.version = version
        self.field_map = dict(field_map or {})
        self.derived = dict(derived or {})
        self.derived_inputs = {k: tuple(v) for k, v in
                               (derived_inputs or {}).items()}
        self.unwind = tuple(unwind)
        self.count = count
        self.seed = seed
        missing = [a for a in self.attributes
                   if a not in self.field_map and a not in self.derived]
        if missing:
            raise WrapperError(
                f"wrapper {name}: attributes {missing} have neither a "
                "field mapping nor a derivation")

    def estimate_rows(self) -> int | None:
        return self.count

    def _base_token(self) -> tuple:
        """Everything the *generated* payload is a pure function of.

        Includes the version's :attr:`~repro.sources.rest_api.ApiVersion.
        revision` — an in-place payload refresh (``update_field``)
        regenerates every document, so it must rotate the token even
        though the schema is unchanged.
        """
        spec = self.endpoint.version(self.version)
        return (self.version, self.count, self.seed,
                tuple(spec.field_names()), spec.revision)

    def data_version(self) -> int:
        """A token over everything a fetch is a pure function of.

        Generation is deterministic in (version schema + revision,
        count, seed); the live-overlay seq covers documents pushed,
        updated or deleted at run time. Two fetches under the same
        token return identical rows — exactly the property a scan
        cache needs. A failing probe raises (so it reads as
        :class:`~repro.relational.physical.Unversioned`, not unchanged).
        """
        return hash((self._base_token(),
                     self.endpoint.live_seq(self.version)))

    def _needed_paths(self, attributes: Sequence[str]
                      ) -> tuple[list[str] | None, list[str] | None]:
        """(endpoint top-level fields, flatten paths) or (None, None)
        when some derived attribute has undeclared inputs."""
        paths: list[str] = []
        for attribute in attributes:
            if attribute in self.field_map:
                paths.append(self.field_map[attribute])
            elif attribute in self.derived_inputs:
                paths.extend(self.derived_inputs[attribute])
            else:
                return None, None  # opaque derivation: fetch everything
        paths.extend(self.unwind)  # unwinds shape row multiplicity
        fields = sorted({p.split(".", 1)[0] for p in paths})
        return fields, sorted(set(paths))

    def _value_of(self, attribute: str, flat: Mapping[str, Any]) -> Any:
        if attribute in self.field_map:
            path = self.field_map[attribute]
            if path not in flat:
                raise WrapperError(
                    f"wrapper {self.name}: version "
                    f"{self.version} of {self.endpoint.name} has "
                    f"no field {path!r} (schema drift?)")
            return flat[path]
        return self.derived[attribute](flat)

    def fetch_rows(self, columns: Sequence[str] | None = None) -> list[dict]:
        attributes = self.attributes if columns is None else columns
        fields, paths = self._needed_paths(attributes)
        documents = self.endpoint.fetch(self.version, self.count,
                                        self.seed, fields=fields)
        flat_rows = flatten_documents(documents, unwind=self.unwind,
                                      paths=paths)
        return [{a: self._value_of(a, flat) for a in attributes}
                for flat in flat_rows]

    # -- change-data-capture --------------------------------------------------

    def _rows_of_document(self, document: dict) -> list[dict]:
        """Full-width wrapper rows of one source document."""
        flat_rows = flatten_documents([document], unwind=self.unwind,
                                      paths=None)
        return [{a: self._value_of(a, flat) for a in self.attributes}
                for flat in flat_rows]

    def delta_cursor(self) -> object:
        """(generated-payload token, live-overlay seq).

        The base token pins the deterministic part of the payload: if
        the schema, revision, count or seed changed, every generated
        row changed with it, and the only honest answer to "what
        changed since?" is a full resync (``fetch_deltas`` → None).
        A failing probe raises, like :meth:`data_version`.
        """
        return (self._base_token(), self.endpoint.live_seq(self.version))

    def fetch_deltas(self, since: object) -> WrapperDeltas | None:
        if not isinstance(since, tuple) or len(since) != 2:
            return None
        base, seq = since
        current_base = self._base_token()
        if base != current_base or not isinstance(seq, int):
            return None
        records = self.endpoint.changes_since(seq, self.version)
        if records is None:
            return None
        changes: list[tuple[int, dict]] = []
        for record in records:
            if record.op == "insert":
                images = [(+1, record.document)]
            elif record.op == "delete":
                images = [(-1, record.document)]
            else:
                images = [(-1, record.before or {}),
                          (+1, record.document)]
            for sign, doc in images:
                for row in self._rows_of_document(doc):
                    changes.append((sign, row))
        cursor = (current_base, self.endpoint.live_seq(self.version))
        return WrapperDeltas(tuple(changes), cursor=cursor,
                             data_version=self.data_version())
