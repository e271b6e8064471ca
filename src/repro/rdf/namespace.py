"""Namespace helpers and the vocabularies used throughout the paper.

A :class:`Namespace` builds :class:`~repro.rdf.term.IRI` terms by attribute
or item access::

    >>> EX = Namespace("http://example.org/")
    >>> EX.thing
    IRI('http://example.org/thing')
    >>> EX["strange name"]
    Traceback (most recent call last):
    ...
    repro.errors.TermError: ...

The module predefines every namespace appearing in the paper's listings
(Codes 6 and 7): RDF, RDFS, OWL, XSD, VOAF, VANN plus the BDI vocabularies
``G`` (Global graph), ``S`` (Source graph) and ``M`` (Mappings), the
SUPERSEDE case-study vocabulary ``SUP`` and the reused public vocabularies
``SC`` (schema.org), ``DUV`` and ``DCT``.
"""

from __future__ import annotations

from repro.rdf.term import IRI

__all__ = [
    "Namespace",
    "RDF", "RDFS", "OWL", "XSD", "VOAF", "VANN",
    "G", "S", "M", "SUP", "SC", "DUV", "DCT",
    "PREFIXES", "expand_curie", "shrink_iri",
]


class Namespace(str):
    """An IRI prefix that mints full IRIs on attribute access."""

    def __new__(cls, base: str) -> "Namespace":
        IRI(base)  # validate
        return str.__new__(cls, base)

    def __getattr__(self, name: str) -> IRI:
        # Reached only on a first access: the minted IRI is stored on
        # the instance, so later accesses find it without revalidating.
        if name.startswith("__"):
            raise AttributeError(name)
        iri = self.__dict__[name] = IRI(str(self) + name)
        return iri

    def __getitem__(self, name: str) -> IRI:
        return IRI(str(self) + name)

    def term(self, name: str) -> IRI:
        """Explicit spelling of ``self[name]`` for odd local names."""
        return IRI(str(self) + name)

    @property
    def iri(self) -> IRI:
        """The namespace IRI itself (e.g. for ``rdfs:isDefinedBy``)."""
        return IRI(str(self))


# --- W3C / community vocabularies ------------------------------------------

RDF = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
RDFS = Namespace("http://www.w3.org/2000/01/rdf-schema#")
OWL = Namespace("http://www.w3.org/2002/07/owl#")
XSD = Namespace("http://www.w3.org/2001/XMLSchema#")
VOAF = Namespace("http://purl.org/vocommons/voaf#")
VANN = Namespace("http://purl.org/vocab/vann/")

# --- BDI ontology vocabularies (paper §3, Codes 6-7) ------------------------

G = Namespace("http://www.essi.upc.edu/~snadal/BDIOntology/Global/")
S = Namespace("http://www.essi.upc.edu/~snadal/BDIOntology/Source/")
M = Namespace("http://www.essi.upc.edu/~snadal/BDIOntology/Mapping/")

# --- Case-study vocabularies -------------------------------------------------

SUP = Namespace("http://www.essi.upc.edu/~snadal/supersede/")
SC = Namespace("http://schema.org/")
DUV = Namespace("http://www.w3.org/ns/duv#")
DCT = Namespace("http://purl.org/dc/terms/")


#: Default prefix table used by the Turtle serializer, the SPARQL parser
#: and pretty-printers. Order matters for ``shrink_iri``: longer namespace
#: IRIs are tried first so the most specific prefix wins.
PREFIXES: dict[str, Namespace] = {
    "rdf": RDF,
    "rdfs": RDFS,
    "owl": OWL,
    "xsd": XSD,
    "voaf": VOAF,
    "vann": VANN,
    "G": G,
    "S": S,
    "M": M,
    "sup": SUP,
    "sc": SC,
    "duv": DUV,
    "dct": DCT,
}


def expand_curie(curie: str,
                 prefixes: dict[str, Namespace] | None = None) -> IRI:
    """Expand ``prefix:local`` into a full IRI using *prefixes*.

    Raises ``KeyError`` for unknown prefixes; the SPARQL/Turtle parsers
    convert that into their own syntax errors with position info.
    """
    table = PREFIXES if prefixes is None else prefixes
    prefix, _, local = curie.partition(":")
    return IRI(str(table[prefix]) + local)


def shrink_iri(iri: str,
               prefixes: dict[str, Namespace] | None = None) -> str:
    """Return a ``prefix:local`` form of *iri* when a prefix matches.

    Falls back to the ``<...>`` N3 form. Used only for display purposes, so
    the local part is additionally required to be prefix-name safe.
    """
    table = PREFIXES if prefixes is None else prefixes
    candidates = sorted(table.items(), key=lambda kv: -len(str(kv[1])))
    for prefix, ns in candidates:
        base = str(ns)
        if iri.startswith(base) and len(iri) > len(base):
            local = iri[len(base):]
            if local and all(
                    c.isalnum() or c in "_-." for c in local
            ) and not local.startswith((".", "-")):
                return f"{prefix}:{local}"
    return f"<{iri}>"
