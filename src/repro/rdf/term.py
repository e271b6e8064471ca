"""RDF term model: IRIs, literals, blank nodes and query variables.

This module implements the RDF 1.1 abstract syntax terms needed by the BDI
ontology. Terms are immutable, hashable value objects so they can be used
freely as dictionary keys inside the indexed triple store.

The design mirrors (a small part of) the surface of ``rdflib`` so readers
familiar with that library feel at home, but the implementation is
self-contained: no third-party dependency is available in this environment.
"""

from __future__ import annotations

import re
from typing import Union

from repro.errors import TermError

__all__ = [
    "Term",
    "IRI",
    "BlankNode",
    "Literal",
    "Variable",
    "TripleTerm",
    "is_term",
]

# RFC 3987 is far too permissive to validate cheaply; we reject the
# characters that break Turtle/N-Triples serialization instead.
_BAD_IRI_CHARS = re.compile(r'[\x00-\x20<>"{}|^`\\]')

_VARNAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

_BNODE_LABEL_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.-]*$")

_LANG_TAG_RE = re.compile(r"^[a-zA-Z]+(-[a-zA-Z0-9]+)*$")

# IRI of xsd:string, inlined to avoid a circular import with namespace.py.
_XSD = "http://www.w3.org/2001/XMLSchema#"
_XSD_STRING = _XSD + "string"
_XSD_INTEGER = _XSD + "integer"
_XSD_DECIMAL = _XSD + "decimal"
_XSD_DOUBLE = _XSD + "double"
_XSD_BOOLEAN = _XSD + "boolean"


class Term:
    """Abstract base class of every RDF term."""

    __slots__ = ()

    def n3(self) -> str:
        """Return the N-Triples / Turtle serialization of this term."""
        raise NotImplementedError

    # Terms sort by (kind rank, serialized form) so that deterministic
    # output orders are easy to produce everywhere in the library.
    _SORT_RANK = 99

    def _sort_key(self) -> tuple[int, str]:
        return (self._SORT_RANK, self.n3())

    def __lt__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self._sort_key() < other._sort_key()


class IRI(Term, str):
    """An absolute IRI (a.k.a. URI reference).

    Subclasses :class:`str` so IRIs behave as plain strings for formatting,
    concatenation and dictionary lookups while still being distinguishable
    from literals via ``isinstance``.

    >>> IRI("http://example.org/a").n3()
    '<http://example.org/a>'
    """

    __slots__ = ()
    _SORT_RANK = 0

    def __new__(cls, value: str) -> "IRI":
        if not isinstance(value, str):
            raise TermError(f"IRI value must be a string, got {type(value)!r}")
        if not value:
            raise TermError("IRI must not be empty")
        if _BAD_IRI_CHARS.search(value):
            raise TermError(f"IRI contains forbidden characters: {value!r}")
        return str.__new__(cls, value)

    def n3(self) -> str:
        return f"<{self}>"

    def __lt__(self, other: "Term") -> bool:
        # Two IRIs order as their <...> forms without building them:
        # the shared "<" drops out, the closing ">" must stay, because
        # "/" sorts before ">" (".../a/b" < ".../a" in N3 form, not as
        # plain strings). str.__add__, not IRI.__add__: ">" would fail
        # IRI validation.
        if isinstance(other, IRI):
            return str.__add__(self, ">") < str.__add__(other, ">")
        return Term.__lt__(self, other)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IRI({str.__repr__(self)})"

    def __add__(self, other: str) -> "IRI":
        """Concatenating a string onto an IRI yields an IRI.

        This mirrors the paper's URI construction idiom, e.g.
        ``Sourceuri + a`` in Algorithm 1.
        """
        return IRI(str(self) + str(other))

    @property
    def local_name(self) -> str:
        """Heuristic local name: the part after the last ``#`` or ``/``."""
        for sep in ("#", "/"):
            if sep in self:
                candidate = self.rsplit(sep, 1)[1]
                if candidate:
                    return candidate
        return str(self)


class BlankNode(Term):
    """A blank node with an explicit label.

    Labels are scoped to a document/graph by convention; the store treats
    equal labels as the same node.
    """

    __slots__ = ("label",)
    _SORT_RANK = 1

    _counter = 0

    def __init__(self, label: str | None = None) -> None:
        if label is None:
            BlankNode._counter += 1
            label = f"b{BlankNode._counter}"
        if not _BNODE_LABEL_RE.match(label):
            raise TermError(f"invalid blank node label: {label!r}")
        object.__setattr__(self, "label", label)

    def __setattr__(self, name: str, value: object) -> None:
        raise TermError("BlankNode is immutable")

    def n3(self) -> str:
        return f"_:{self.label}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BlankNode) and self.label == other.label

    def __hash__(self) -> int:
        return hash(("BlankNode", self.label))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlankNode({self.label!r})"


class Literal(Term):
    """An RDF literal with optional datatype IRI or language tag.

    Follows RDF 1.1 semantics: every literal has a datatype; plain literals
    get ``xsd:string``, language-tagged literals get ``rdf:langString``.

    >>> Literal(42).n3()
    '"42"^^<http://www.w3.org/2001/XMLSchema#integer>'
    >>> Literal("chat", lang="fr").n3()
    '"chat"@fr'
    """

    __slots__ = ("lexical", "datatype", "lang")

    _SORT_RANK = 2

    _RDF_LANGSTRING = IRI(
        "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString")

    def __init__(self, value: object, datatype: IRI | str | None = None,
                 lang: str | None = None) -> None:
        if lang is not None and datatype is not None:
            raise TermError("a literal cannot have both a language tag "
                            "and a datatype")
        if lang is not None and not _LANG_TAG_RE.match(lang):
            raise TermError(f"invalid language tag: {lang!r}")

        # Map Python natives onto lexical forms + XSD datatypes.
        if isinstance(value, bool):
            lexical = "true" if value else "false"
            inferred: str | None = _XSD_BOOLEAN
        elif isinstance(value, int):
            lexical = str(value)
            inferred = _XSD_INTEGER
        elif isinstance(value, float):
            lexical = repr(value)
            inferred = _XSD_DOUBLE
        elif isinstance(value, str):
            lexical = value
            inferred = None
        else:
            raise TermError(
                f"unsupported literal value type: {type(value)!r}")

        if datatype is not None:
            datatype = IRI(str(datatype))
        elif lang is not None:
            datatype = Literal._RDF_LANGSTRING
        elif inferred is not None:
            datatype = IRI(inferred)
        else:
            datatype = IRI(_XSD_STRING)

        object.__setattr__(self, "lexical", lexical)
        object.__setattr__(self, "datatype", datatype)
        object.__setattr__(self, "lang", lang)

    def __setattr__(self, name: str, value: object) -> None:
        raise TermError("Literal is immutable")

    # -- value mapping -----------------------------------------------------

    def to_python(self) -> object:
        """Map the literal back to a Python native when possible."""
        dt = str(self.datatype)
        try:
            if dt == _XSD_INTEGER or dt.endswith(("#int", "#long", "#short")):
                return int(self.lexical)
            if dt in (_XSD_DECIMAL, _XSD_DOUBLE) or dt.endswith("#float"):
                return float(self.lexical)
            if dt == _XSD_BOOLEAN:
                return self.lexical.strip() in ("true", "1")
        except ValueError:
            return self.lexical
        return self.lexical

    # -- serialization -----------------------------------------------------

    @staticmethod
    def _escape(text: str) -> str:
        escaped = (text.replace("\\", "\\\\").replace('"', '\\"')
                   .replace("\n", "\\n").replace("\r", "\\r")
                   .replace("\t", "\\t"))
        # Remaining control/separator characters would corrupt the
        # line-based N-Triples format (str.splitlines also splits on
        # \x0b, \x0c, \x1c-\x1e, \x85, U+2028, U+2029); emit them as
        # \uXXXX escapes.
        out = []
        for ch in escaped:
            code = ord(ch)
            if code < 0x20 or code in (0x85, 0x2028, 0x2029):
                out.append(f"\\u{code:04X}")
            else:
                out.append(ch)
        return "".join(out)

    def n3(self) -> str:
        quoted = f'"{self._escape(self.lexical)}"'
        if self.lang is not None:
            return f"{quoted}@{self.lang}"
        if str(self.datatype) == _XSD_STRING:
            return quoted
        return f"{quoted}^^{self.datatype.n3()}"

    # -- equality ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Literal)
                and self.lexical == other.lexical
                and self.datatype == other.datatype
                and self.lang == other.lang)

    def __hash__(self) -> int:
        return hash(("Literal", self.lexical, self.datatype, self.lang))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Literal({self.n3()})"


class Variable(Term):
    """A SPARQL query variable such as ``?ds``.

    Variables are terms so triple *patterns* and concrete triples share one
    representation; the store simply never accepts variables in asserted
    triples.
    """

    __slots__ = ("name",)
    _SORT_RANK = 3

    def __init__(self, name: str) -> None:
        name = name.lstrip("?$")
        if not _VARNAME_RE.match(name):
            raise TermError(f"invalid variable name: {name!r}")
        object.__setattr__(self, "name", name)

    def __setattr__(self, name: str, value: object) -> None:
        raise TermError("Variable is immutable")

    def n3(self) -> str:
        return f"?{self.name}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("Variable", self.name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Variable({self.name!r})"


#: Union of the term kinds allowed in subject/predicate/object positions.
TripleTerm = Union[IRI, BlankNode, Literal, Variable]


def is_term(value: object) -> bool:
    """Return True when *value* is an RDF term of this library."""
    return isinstance(value, Term)
