"""Evaluation of the SPARQL subset over graphs and datasets.

Solutions are immutable-ish dictionaries mapping
:class:`~repro.rdf.term.Variable` to concrete terms. Evaluation follows the
SPARQL algebra shape of the paper's Code 4::

    project(?v1 ... ?vn,
        join(table(VALUES rows),
             bgp(triple patterns)))

BGPs are solved by backtracking with a most-selective-first pattern order;
over a dataset they read a zero-copy
:class:`~repro.rdf.dataset.UnionView` of the ``FROM`` graphs (all graphs
when there is no ``FROM``). ``GRAPH ?g`` patterns iterate the dataset's
named graphs (this is how the LAV mappings are resolved in Algorithms 4
and 5). RDFS entailment can be
switched on, in which case subclass/type matching is answered through
:class:`~repro.rdf.reasoner.RDFSView`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.errors import SparqlEvaluationError
from repro.rdf.dataset import Dataset
from repro.rdf.graph import Graph, TripleReader
from repro.rdf.reasoner import RDFSView
from repro.rdf.sparql.ast import (
    BGP, GraphPattern, SelectQuery, TriplePattern, ValuesClause,
)
from repro.rdf.sparql.parser import parse_sparql
from repro.rdf.term import IRI, Term, Variable
from repro.rdf.triple import Triple

__all__ = ["Solution", "evaluate", "select", "select_one", "ask"]

#: One SPARQL solution mapping.
Solution = dict[Variable, Term]



def _substitute(pattern: TriplePattern, binding: Solution) -> TriplePattern:
    """Replace bound variables in *pattern* by their values."""
    def sub(term: Term) -> Term:
        if isinstance(term, Variable):
            return binding.get(term, term)
        return term
    return Triple(sub(pattern.s), sub(pattern.p), sub(pattern.o))


def _selectivity(pattern: TriplePattern, binding: Solution) -> int:
    """Bound-position count after substitution; higher = more selective."""
    concrete = _substitute(pattern, binding)
    return sum(0 if isinstance(t, Variable) else 1 for t in concrete)


def _match_bgp(graph: TripleReader, patterns: tuple[TriplePattern, ...],
               binding: Solution) -> Iterator[Solution]:
    """Backtracking BGP matcher."""
    if not patterns:
        yield dict(binding)
        return
    # Pick the currently most selective pattern (greedy heuristic).
    index = max(range(len(patterns)),
                key=lambda i: _selectivity(patterns[i], binding))
    chosen = patterns[index]
    rest = patterns[:index] + patterns[index + 1:]
    concrete = _substitute(chosen, binding)

    s = None if isinstance(concrete.s, Variable) else concrete.s
    p = None if isinstance(concrete.p, Variable) else concrete.p
    o = None if isinstance(concrete.o, Variable) else concrete.o

    for found in graph.match(s, p, o):
        new_binding = dict(binding)
        consistent = True
        for pat_term, got in zip(concrete, found):
            if isinstance(pat_term, Variable):
                existing = new_binding.get(pat_term)
                if existing is None:
                    new_binding[pat_term] = got
                elif existing != got:
                    consistent = False
                    break
        if consistent:
            yield from _match_bgp(graph, rest, new_binding)


def _compatible(a: Solution, b: Solution) -> Solution | None:
    """Merge two solutions when their shared variables agree."""
    merged = dict(a)
    for var, term in b.items():
        existing = merged.get(var)
        if existing is None:
            merged[var] = term
        elif existing != term:
            return None
    return merged


class _Scope:
    """Resolved evaluation scope: the graph for BGPs and the dataset for
    GRAPH patterns."""

    def __init__(self, target: Graph | Dataset,
                 from_graphs: tuple[IRI, ...],
                 entailment: bool) -> None:
        self.entailment = entailment
        base: TripleReader
        if isinstance(target, Dataset):
            self.dataset: Dataset | None = target
            base = target.union_view(from_graphs or None)
        else:
            self.dataset = None
            base = target
        self.base_graph: TripleReader = (
            RDFSView(base) if entailment else base)

    def named_graphs(self) -> Iterable[tuple[IRI, TripleReader]]:
        if self.dataset is None:
            return ()
        result = []
        for name, g in self.dataset.named_graphs():
            result.append((name, RDFSView(g) if self.entailment else g))
        return result

    def named_graph(self, name: IRI) -> TripleReader | None:
        if self.dataset is None or not self.dataset.has_graph(name):
            return None
        g = self.dataset.graph(name)
        return RDFSView(g) if self.entailment else g


def _eval_patterns(scope: _Scope, patterns: tuple, index: int,
                   binding: Solution) -> Iterator[Solution]:
    if index == len(patterns):
        yield binding
        return
    pattern = patterns[index]

    if isinstance(pattern, ValuesClause):
        for row in pattern.rows:
            row_binding = dict(zip(pattern.variables, row))
            merged = _compatible(binding, row_binding)
            if merged is not None:
                yield from _eval_patterns(scope, patterns, index + 1, merged)
        return

    if isinstance(pattern, BGP):
        for solution in _match_bgp(scope.base_graph, pattern.patterns,
                                   binding):
            yield from _eval_patterns(scope, patterns, index + 1, solution)
        return

    if isinstance(pattern, GraphPattern):
        if isinstance(pattern.graph, Variable):
            graph_var = pattern.graph
            bound = binding.get(graph_var)
            if bound is not None:
                candidates: Iterable[tuple[IRI, TripleReader]]
                target = (scope.named_graph(bound)
                          if isinstance(bound, IRI) else None)
                candidates = [(bound, target)] if target is not None else []
            else:
                candidates = scope.named_graphs()
            for name, graph in candidates:
                start = dict(binding)
                start[graph_var] = name
                for solution in _match_bgp(graph, pattern.bgp.patterns,
                                           start):
                    yield from _eval_patterns(scope, patterns, index + 1,
                                              solution)
            return
        graph = scope.named_graph(pattern.graph)
        if graph is None:
            return
        for solution in _match_bgp(graph, pattern.bgp.patterns, binding):
            yield from _eval_patterns(scope, patterns, index + 1, solution)
        return

    raise SparqlEvaluationError(
        f"unsupported pattern type {type(pattern)!r}")  # pragma: no cover


def evaluate(target: Graph | Dataset, query: SelectQuery | str,
             entailment: bool = True,
             prefixes: dict[str, str] | None = None,
             bindings: Mapping[str, Term] | None = None) -> list[Solution]:
    """Evaluate *query* against *target*, returning projected solutions.

    ``entailment=True`` (the default, matching the paper's RDFS entailment
    regime) answers ``rdfs:subClassOf`` / ``rdf:type`` patterns through the
    transitive closure. *bindings* pre-binds variables by name before
    evaluation, exactly as if their terms had been written into the
    query text; that lets a template parsed once at import answer every
    lookup (``SELECT ?t WHERE { ?c G:hasFeature ?t }`` with ``c`` bound).
    """
    if isinstance(query, str):
        query = parse_sparql(query, prefixes)
    scope = _Scope(target, query.from_graphs, entailment)
    start: Solution = ({Variable(name): term
                        for name, term in bindings.items()}
                       if bindings else {})

    raw = _eval_patterns(scope, query.patterns, 0, start)
    projected_vars = query.projected()

    results: list[Solution] = []
    seen: set[tuple] = set()
    for solution in raw:
        projected = {v: solution[v] for v in projected_vars if v in solution}
        if query.distinct:
            key = tuple(projected.get(v) for v in projected_vars)
            if key in seen:
                continue
            seen.add(key)
        results.append(projected)
    return results


def select(target: Graph | Dataset, query: SelectQuery | str,
           entailment: bool = True,
           prefixes: dict[str, str] | None = None,
           bindings: Mapping[str, Term] | None = None,
           ) -> list[dict[str, Term]]:
    """Like :func:`evaluate` but keys results by variable *name*.

    This is the convenience entry point used by the BDI algorithms::

        rows = select(ontology.dataset, '''
            SELECT ?ds WHERE { ?ds rdf:type S:DataSource }
        ''')
    """
    solutions = evaluate(target, query, entailment, prefixes, bindings)
    return [{var.name: term for var, term in sol.items()}
            for sol in solutions]


def select_one(target: Graph | Dataset, query: SelectQuery | str,
               entailment: bool = True,
               prefixes: dict[str, str] | None = None,
               ) -> dict[str, Term] | None:
    """First solution of :func:`select`, or None."""
    rows = select(target, query, entailment, prefixes)
    return rows[0] if rows else None


def ask(target: Graph | Dataset, query: SelectQuery | str,
        entailment: bool = True,
        prefixes: dict[str, str] | None = None) -> bool:
    """True when the query has at least one solution."""
    return bool(evaluate(target, query, entailment, prefixes))
