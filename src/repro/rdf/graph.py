"""An indexed in-memory RDF graph.

The graph maintains three nested-dictionary indexes (SPO, POS, OSP) so that
every triple-pattern shape resolves through a dictionary walk instead of a
scan — the same layout Jena TDB uses on disk, here in memory. This is the
workhorse of the reproduction: all BDI algorithms are sequences of pattern
matches over graphs of this kind.

Pattern positions accept ``None`` (wildcard) or a
:class:`~repro.rdf.term.Variable` (treated as a wildcard as well); concrete
terms must match exactly.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.rdf.term import IRI, Term, Variable
from repro.rdf.triple import Triple, coerce_node

__all__ = ["Graph", "MutationTally", "TripleReader"]

_Index = dict  # nested: {t1: {t2: set(t3)}}


def _pattern_term(value: object | None) -> Optional[Term]:
    """Normalize one pattern position: None/Variable -> None wildcard."""
    if value is None or isinstance(value, Variable):
        return None
    return coerce_node(value)


class MutationTally:
    """A running total of effective mutations shared by several graphs.

    A :class:`~repro.rdf.dataset.Dataset` attaches one tally to each of
    its graphs, and every effective edit of any of them bumps it, so the
    dataset's total is read in O(1) instead of summed over its graphs.
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


class TripleReader:
    """The read-only pattern API shared by graphs and graph views.

    Subclasses provide :meth:`match`; membership and the distinct
    subject/object accessors the BDI algorithms use are derived from it.
    """

    __slots__ = ()

    def match(self, s: object | None = None, p: object | None = None,
              o: object | None = None) -> Iterator[Triple]:
        raise NotImplementedError  # pragma: no cover - abstract

    def contains(self, s: object | None = None, p: object | None = None,
                 o: object | None = None) -> bool:
        """True when at least one triple matches the pattern."""
        return next(iter(self.match(s, p, o)), None) is not None

    def subjects(self, p: object | None = None,
                 o: object | None = None) -> Iterator[Term]:
        seen: set[Term] = set()
        for t in self.match(None, p, o):
            if t.s not in seen:
                seen.add(t.s)
                yield t.s

    def objects(self, s: object | None = None,
                p: object | None = None) -> Iterator[Term]:
        seen: set[Term] = set()
        for t in self.match(s, p, None):
            if t.o not in seen:
                seen.add(t.o)
                yield t.o

    def __contains__(self, item: object) -> bool:
        if isinstance(item, (Triple, tuple)) and len(item) == 3:
            s, p, o = item
            return self.contains(s, p, o)
        return False

    def __iter__(self) -> Iterator[Triple]:
        return self.match()


class Graph(TripleReader):
    """A set of RDF triples with SPO/POS/OSP indexing.

    Supports the container protocol (``in``, ``len``, iteration), set-like
    bulk operations, and :meth:`match` for pattern queries.

    >>> g = Graph()
    >>> _ = g.add(("http://x/a", "http://x/p", "http://x/b"))
    >>> len(g)
    1
    """

    __slots__ = ("identifier", "_spo", "_pos", "_osp", "_size",
                 "_mutations", "_tally")

    def __init__(self, identifier: IRI | str | None = None,
                 triples: Iterable[object] | None = None) -> None:
        if identifier is not None and not isinstance(identifier, str):
            # Graph([...triples...]) convenience form.
            if triples is not None:
                raise TypeError(
                    "pass either positional triples or identifier, "
                    "not both")
            identifier, triples = None, identifier
        self.identifier: Optional[IRI] = (
            None if identifier is None else IRI(str(identifier)))
        self._spo: _Index = {}
        self._pos: _Index = {}
        self._osp: _Index = {}
        self._size = 0
        self._mutations = 0
        #: the owning dataset's running total (None for a free graph)
        self._tally: MutationTally | None = None
        if triples is not None:
            self.update(triples)

    # -- coercion ------------------------------------------------------------

    @staticmethod
    def _as_triple(item: object) -> Triple:
        if isinstance(item, Triple):
            return item.validate_concrete()
        if isinstance(item, tuple) and len(item) == 3:
            return Triple.of(*item).validate_concrete()
        raise TypeError(f"expected a triple, got {item!r}")

    # -- mutation --------------------------------------------------------------

    def add(self, item: object) -> "Graph":
        """Add one triple; returns self for chaining. Idempotent."""
        t = self._as_triple(item)
        leaf = self._spo.setdefault(t.s, {}).setdefault(t.p, set())
        if t.o in leaf:
            return self
        leaf.add(t.o)
        self._pos.setdefault(t.p, {}).setdefault(t.o, set()).add(t.s)
        self._osp.setdefault(t.o, {}).setdefault(t.s, set()).add(t.p)
        self._size += 1
        self._count_mutations(1)
        return self

    def update(self, items: Iterable[object]) -> "Graph":
        """Add many triples (or the content of another graph)."""
        for item in items:
            self.add(item)
        return self

    def remove(self, item: object) -> bool:
        """Remove one concrete triple. Returns True when it was present."""
        t = self._as_triple(item)
        try:
            leaf = self._spo[t.s][t.p]
            leaf.remove(t.o)
        except KeyError:
            return False
        if not leaf:
            del self._spo[t.s][t.p]
            if not self._spo[t.s]:
                del self._spo[t.s]
        self._pos[t.p][t.o].discard(t.s)
        if not self._pos[t.p][t.o]:
            del self._pos[t.p][t.o]
            if not self._pos[t.p]:
                del self._pos[t.p]
        self._osp[t.o][t.s].discard(t.p)
        if not self._osp[t.o][t.s]:
            del self._osp[t.o][t.s]
            if not self._osp[t.o]:
                del self._osp[t.o]
        self._size -= 1
        self._count_mutations(1)
        return True

    def remove_matching(self, s: object | None = None, p: object | None = None,
                        o: object | None = None) -> int:
        """Remove every triple matching the pattern; return removal count."""
        victims = list(self.match(s, p, o))
        for t in victims:
            self.remove(t)
        return len(victims)

    def clear(self) -> None:
        if self._size:
            self._count_mutations(1)
        self._spo.clear()
        self._pos.clear()
        self._osp.clear()
        self._size = 0

    def _count_mutations(self, count: int) -> None:
        self._mutations += count
        tally = self._tally
        if tally is not None:
            tally.count += count

    def attach_tally(self, tally: MutationTally | None) -> None:
        """Report later edits to *tally* (None detaches the graph).

        The owning dataset calls this when it creates or drops the
        graph; the graph's own count so far is not added to *tally*.
        """
        self._tally = tally

    @property
    def mutation_count(self) -> int:
        """Count of effective mutations (adds, removals, clears) so far.

        Monotonic; lets fingerprints detect count-neutral edits (remove
        one triple, add another) that leave ``len(graph)`` unchanged.
        """
        return self._mutations

    def restore_mutation_count(self, count: int) -> None:
        """Reinstate a recorded mutation count (snapshot restore only).

        Fingerprints hash the mutation count, so a graph rebuilt from a
        snapshot must resume counting where the snapshotted graph left
        off — otherwise the restored ontology could never reproduce the
        writer's fingerprint. Monotonicity is preserved: the count may
        only move forward.
        """
        if count < self._mutations:
            raise ValueError(
                f"mutation count may only advance ({self._mutations} -> "
                f"{count})")
        self._count_mutations(count - self._mutations)

    # -- queries ----------------------------------------------------------------

    def match(self, s: object | None = None, p: object | None = None,
              o: object | None = None) -> Iterator[Triple]:
        """Yield triples matching the pattern (None/Variable = wildcard).

        Chooses the index according to which positions are bound:

        ========= =========
        bound     index
        ========= =========
        s ? ?     SPO
        s p ?     SPO
        s p o     SPO
        ? p ?     POS
        ? p o     POS
        ? ? o     OSP
        s ? o     OSP
        ? ? ?     SPO scan
        ========= =========
        """
        return self.match_terms(
            _pattern_term(s), _pattern_term(p), _pattern_term(o))

    def match_terms(self, ms: Term | None, mp: Term | None,
                    mo: Term | None) -> Iterator[Triple]:
        """:meth:`match` for an already normalized pattern (terms or
        ``None``), so views over many graphs normalize it once."""
        if ms is not None:
            if mp is not None:
                objects = self._spo.get(ms, {}).get(mp, ())
                if mo is not None:
                    if mo in objects:
                        yield Triple(ms, mp, mo)
                    return
                for obj in objects:
                    yield Triple(ms, mp, obj)
                return
            if mo is not None:  # s ? o -> OSP
                preds = self._osp.get(mo, {}).get(ms, ())
                for pred in preds:
                    yield Triple(ms, pred, mo)
                return
            for pred, objects in self._spo.get(ms, {}).items():
                for obj in objects:
                    yield Triple(ms, pred, obj)
            return

        if mp is not None:  # ? p ? / ? p o -> POS
            by_obj = self._pos.get(mp, {})
            if mo is not None:
                for subj in by_obj.get(mo, ()):
                    yield Triple(subj, mp, mo)
                return
            for obj, subjects in by_obj.items():
                for subj in subjects:
                    yield Triple(subj, mp, obj)
            return

        if mo is not None:  # ? ? o -> OSP
            for subj, preds in self._osp.get(mo, {}).items():
                for pred in preds:
                    yield Triple(subj, pred, mo)
            return

        for subj, by_pred in self._spo.items():  # full scan
            for pred, objects in by_pred.items():
                for obj in objects:
                    yield Triple(subj, pred, obj)

    def count(self, s: object | None = None, p: object | None = None,
              o: object | None = None) -> int:
        """Number of triples matching the pattern."""
        return sum(1 for _ in self.match(s, p, o))

    def has_triple(self, t: Triple) -> bool:
        """Membership of one concrete triple: a single SPO index probe."""
        by_pred = self._spo.get(t.s)
        return by_pred is not None and t.o in by_pred.get(t.p, ())

    # Convenience accessors used pervasively by the BDI algorithms ------------

    def predicates(self, s: object | None = None,
                   o: object | None = None) -> Iterator[Term]:
        seen: set[Term] = set()
        for t in self.match(s, None, o):
            if t.p not in seen:
                seen.add(t.p)
                yield t.p

    def value(self, s: object | None = None, p: object | None = None,
              o: object | None = None) -> Optional[Term]:
        """Return one term filling the single ``None`` position, if any."""
        pattern = (s, p, o)
        holes = [i for i, v in enumerate(pattern) if v is None]
        if len(holes) != 1:
            raise ValueError("value() requires exactly one unbound position")
        t = next(iter(self.match(s, p, o)), None)
        if t is None:
            return None
        return t[holes[0]]

    # -- protocols ------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __eq__(self, other: object) -> bool:
        """Graphs compare by triple-set equality (identifier ignored)."""
        if not isinstance(other, Graph):
            return NotImplemented
        return self._size == other._size and all(t in other for t in self)

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    __hash__ = None  # type: ignore[assignment]  # mutable container

    # -- set-like algebra -------------------------------------------------------

    def copy(self, identifier: IRI | str | None = None) -> "Graph":
        g = Graph(identifier if identifier is not None else self.identifier)
        g.update(self)
        return g

    def union(self, other: "Graph") -> "Graph":
        return self.copy().update(other)

    def __or__(self, other: "Graph") -> "Graph":
        return self.union(other)

    def __ior__(self, other: Iterable[object]) -> "Graph":
        return self.update(other)

    def intersection(self, other: "Graph") -> "Graph":
        small, large = (self, other) if len(self) <= len(other) else (other, self)
        return Graph(triples=(t for t in small if t in large))

    def difference(self, other: "Graph") -> "Graph":
        return Graph(triples=(t for t in self if t not in other))

    def issubset(self, other: "Graph") -> bool:
        """True when every triple of self is in other (⊆, used for coverage)."""
        return len(self) <= len(other) and all(t in other for t in self)

    def __le__(self, other: "Graph") -> bool:
        return self.issubset(other)

    # -- display ---------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = self.identifier or "anonymous"
        return f"<Graph {name} with {self._size} triples>"
