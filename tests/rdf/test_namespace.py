"""Unit tests for namespaces, CURIE expansion and IRI shrinking."""

import pytest

from repro.rdf.namespace import (
    G, Namespace, PREFIXES, RDF, SUP, expand_curie, shrink_iri,
)
from repro.rdf.term import IRI


class TestNamespace:
    def test_attribute_access(self):
        ns = Namespace("http://example.org/")
        assert ns.thing == IRI("http://example.org/thing")
        assert isinstance(ns.thing, IRI)

    def test_item_access(self):
        ns = Namespace("http://example.org/")
        assert ns["a/b"] == IRI("http://example.org/a/b")

    def test_term_method(self):
        ns = Namespace("http://example.org/")
        assert ns.term("x") == ns.x

    def test_iri_property(self):
        ns = Namespace("http://example.org/")
        assert ns.iri == IRI("http://example.org/")

    def test_dunder_not_hijacked(self):
        ns = Namespace("http://example.org/")
        with pytest.raises(AttributeError):
            ns.__wrapped__  # noqa: B018

    def test_attribute_minted_once(self):
        ns = Namespace("http://example.org/")
        first = ns.thing
        assert ns.thing is first  # stored on the instance, not re-minted
        assert ns.__dict__["thing"] is first
        assert ns == "http://example.org/"  # still the plain prefix
        with pytest.raises(AttributeError):
            ns.__missing_dunder__  # noqa: B018
        assert "__missing_dunder__" not in ns.__dict__

    def test_invalid_base_rejected(self):
        from repro.errors import TermError
        with pytest.raises(TermError):
            Namespace("not an iri")


class TestCurie:
    def test_expand(self):
        assert expand_curie("rdf:type") == RDF.type
        assert expand_curie("sup:lagRatio") == SUP.lagRatio

    def test_expand_unknown_prefix(self):
        with pytest.raises(KeyError):
            expand_curie("nope:x")

    def test_expand_custom_table(self):
        table = {"ex": Namespace("http://example.org/")}
        assert expand_curie("ex:y", table) == IRI("http://example.org/y")


class TestShrink:
    def test_shrinks_known_namespace(self):
        assert shrink_iri(str(G.Concept)) == "G:Concept"
        assert shrink_iri(str(RDF.type)) == "rdf:type"

    def test_unknown_falls_back_to_brackets(self):
        assert shrink_iri("http://unknown.example/x") == \
            "<http://unknown.example/x>"

    def test_slashy_locals_not_shrunk(self):
        # Attribute URIs contain '/' in the local part: keep full form.
        from repro.core.vocabulary import attribute_uri
        text = shrink_iri(str(attribute_uri("D1", "lagRatio")))
        assert text.startswith("<")

    def test_most_specific_prefix_wins(self):
        # G: is longer/more specific than any generic prefix match.
        assert shrink_iri(str(G.hasFeature)) == "G:hasFeature"

    def test_bare_namespace_not_shrunk_to_empty_local(self):
        assert shrink_iri(str(G)) == f"<{G}>"

    def test_all_default_prefixes_roundtrip(self):
        for prefix, ns in PREFIXES.items():
            iri = ns["local1"]
            assert shrink_iri(str(iri)) == f"{prefix}:local1"
