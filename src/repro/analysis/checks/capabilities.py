"""wrapper-capabilities: wrappers implement the scan and CDC contracts.

:meth:`Wrapper.relation <repro.wrappers.base.Wrapper.relation>` calls
every wrapper's ``fetch_rows`` with ``columns=`` (the projection a
source may push down), and incremental maintenance resumes delta feeds
from ``delta_cursor()``. A ``fetch_rows`` without that parameter fails
on its first scan, and a wrapper that serves deltas without its own
cursor fails deep inside a refresh cycle instead of at review time.

The contract enforced here is deliberately local:

* every ``fetch_rows`` definition takes a ``columns`` parameter (or
  ``**kwargs``);
* a class that defines ``fetch_deltas`` gives it a ``since`` parameter
  **and** defines a ``delta_cursor`` method in its own body.

An inherited generic cursor cannot position a change log its base
never kept, so "the base class has it" is not an excuse — if a
subclass genuinely delegates, it says so with a justified suppression.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.model import Finding, Project, SourceFile
from repro.analysis.registry import Checker, register

__all__ = ["WrapperCapabilitiesChecker"]


def _method(cls: ast.ClassDef, name: str) -> ast.FunctionDef | None:
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                node.name == name:
            return node
    return None


def _param_names(method: ast.FunctionDef) -> set[str]:
    args = method.args
    names = {a.arg for a in args.posonlyargs}
    names |= {a.arg for a in args.args}
    names |= {a.arg for a in args.kwonlyargs}
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    return names


@register
class WrapperCapabilitiesChecker(Checker):
    name = "wrapper-capabilities"
    description = ("every fetch_rows takes columns; wrappers serving "
                   "fetch_deltas take since and define delta_cursor "
                   "locally")

    def check(self, project: Project) -> Iterator[Finding]:
        for source in project.files:
            for cls in self.classes_of(source):
                yield from self._check_class(source, cls)

    def _check_class(self, source: SourceFile,
                     cls: ast.ClassDef) -> Iterator[Finding]:
        fetch_rows = _method(cls, "fetch_rows")
        if fetch_rows is not None and fetch_rows.args.kwarg is None \
                and "columns" not in _param_names(fetch_rows):
            yield source.finding(
                fetch_rows.lineno, self.name,
                f"{cls.name}.fetch_rows lacks a `columns` parameter; "
                "Wrapper.relation passes columns= (the projection "
                "pushdown) to every fetch_rows")

        fetch = _method(cls, "fetch_deltas")
        if fetch is None:
            return
        if "since" not in _param_names(fetch):
            yield source.finding(
                fetch.lineno, self.name,
                f"{cls.name}.fetch_deltas lacks a `since` "
                "parameter; delta feeds resume from a cursor and "
                "must accept one")
        if _method(cls, "delta_cursor") is None:
            yield source.finding(
                fetch.lineno, self.name,
                f"{cls.name}.fetch_deltas is defined but the class "
                "defines no `delta_cursor`; feeds cannot snapshot a "
                "resume point")
