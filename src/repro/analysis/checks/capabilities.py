"""wrapper-capabilities: advertised wrapper features have real methods.

The physical layer plans pushdown against what a wrapper *says* it can
do — ``capabilities()`` advertises projection pushdown and a
``fetch_deltas`` override serves CDC — and incremental maintenance
resumes delta feeds from ``delta_cursor()``. The planner
never re-verifies: a wrapper that returns
``WrapperCapabilities(projection=True)`` but whose ``fetch_rows``
ignores the ``columns`` argument silently produces wrong (or
un-pruned) scans, and one that serves deltas without its own cursor
fails deep inside a refresh cycle instead of at review time.

The contract enforced here is deliberately local:

* every ``fetch_rows`` definition takes a ``columns`` parameter (or
  ``**kwargs``): :meth:`Wrapper.fetch
  <repro.wrappers.base.Wrapper.fetch>` passes it to every wrapper,
  whether or not it advertises projection pushdown;
* a class that advertises ``WrapperCapabilities(projection=True)``
  **in its own body** defines ``fetch_rows`` in its own body;
* a class that defines ``fetch_deltas`` gives it a ``since`` parameter
  **and** defines a ``delta_cursor`` method in its own body.

An inherited generic implementation cannot honor a capability its base
never advertised, so "the base class has it" is not an excuse — if a
subclass genuinely delegates, it says so with a justified suppression.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.model import Finding, Project, SourceFile
from repro.analysis.registry import Checker, register

__all__ = ["WrapperCapabilitiesChecker"]

CAPS_CLASS = "WrapperCapabilities"

#: pushdown capabilities ``fetch_rows`` implements
_FEATURES = ("projection",)


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


def _advertised_features(method: ast.FunctionDef) -> dict[str, int]:
    """capability name -> line, from ``WrapperCapabilities(...)`` calls
    with ``<feature>=True`` constant keywords inside *method*."""
    features: dict[str, int] = {}
    for node in ast.walk(method):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        if name != CAPS_CLASS:
            continue
        for keyword in node.keywords:
            if keyword.arg in _FEATURES and \
                    isinstance(keyword.value, ast.Constant) and \
                    keyword.value.value is True:
                features.setdefault(keyword.arg, node.lineno)
    return features


@register
class WrapperCapabilitiesChecker(Checker):
    name = "wrapper-capabilities"
    description = ("every fetch_rows takes columns; "
                   "wrappers advertising capabilities() features or "
                   "serving fetch_deltas implement the matching methods "
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
                "Wrapper.fetch passes columns= to every fetch_rows, "
                "whether or not projection pushdown is advertised")
        caps = _method(cls, "capabilities")
        if caps is not None and fetch_rows is None:
            for feature, line in sorted(
                    _advertised_features(caps).items()):
                yield source.finding(
                    line, self.name,
                    f"{cls.name}.capabilities advertises "
                    f"{feature}=True but the class defines no "
                    "`fetch_rows`; the planner will push down work "
                    "nothing implements")

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
