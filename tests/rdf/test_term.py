"""Unit tests for the RDF term model."""

import pytest

from repro.errors import TermError
from repro.rdf.term import BlankNode, IRI, Literal, Variable


class TestIRI:
    def test_n3(self):
        assert IRI("http://x/a").n3() == "<http://x/a>"

    def test_is_a_string(self):
        iri = IRI("http://x/a")
        assert isinstance(iri, str)
        assert iri == "http://x/a"

    def test_concatenation_yields_iri(self):
        combined = IRI("http://x/") + "suffix"
        assert isinstance(combined, IRI)
        assert str(combined) == "http://x/suffix"

    def test_rejects_empty(self):
        with pytest.raises(TermError):
            IRI("")

    def test_rejects_spaces(self):
        with pytest.raises(TermError):
            IRI("http://x/a b")

    def test_rejects_angle_brackets(self):
        with pytest.raises(TermError):
            IRI("http://x/<a>")

    def test_rejects_non_string(self):
        with pytest.raises(TermError):
            IRI(42)  # type: ignore[arg-type]

    def test_local_name_hash(self):
        assert IRI("http://x/v#frag").local_name == "frag"

    def test_local_name_slash(self):
        assert IRI("http://x/path/leaf").local_name == "leaf"

    def test_hashable_and_dict_key(self):
        d = {IRI("http://x/a"): 1}
        assert d[IRI("http://x/a")] == 1


class TestBlankNode:
    def test_label_round_trip(self):
        assert BlankNode("b1").n3() == "_:b1"

    def test_fresh_labels_differ(self):
        assert BlankNode() != BlankNode()

    def test_equality_by_label(self):
        assert BlankNode("x") == BlankNode("x")

    def test_rejects_bad_label(self):
        with pytest.raises(TermError):
            BlankNode("-bad")

    def test_immutable(self):
        node = BlankNode("b")
        with pytest.raises(TermError):
            node.label = "c"  # type: ignore[misc]


class TestLiteral:
    def test_plain_string(self):
        lit = Literal("hello")
        assert lit.n3() == '"hello"'
        assert lit.to_python() == "hello"

    def test_integer(self):
        lit = Literal(42)
        assert "XMLSchema#integer" in lit.n3()
        assert lit.to_python() == 42

    def test_float(self):
        assert Literal(1.5).to_python() == 1.5

    def test_boolean(self):
        assert Literal(True).lexical == "true"
        assert Literal(False).to_python() is False

    def test_language_tag(self):
        lit = Literal("chat", lang="fr")
        assert lit.n3() == '"chat"@fr'

    def test_lang_and_datatype_conflict(self):
        with pytest.raises(TermError):
            Literal("x", datatype="http://x/dt", lang="en")

    def test_bad_lang_tag(self):
        with pytest.raises(TermError):
            Literal("x", lang="no spaces")

    def test_escaping(self):
        lit = Literal('say "hi"\n')
        assert '\\"hi\\"' in lit.n3()
        assert "\\n" in lit.n3()

    def test_equality(self):
        assert Literal("a") == Literal("a")
        assert Literal("a") != Literal("a", lang="en")
        assert Literal("1") != Literal(1)

    def test_custom_datatype(self):
        lit = Literal("P1D", datatype="http://www.w3.org/2001/XMLSchema#duration")
        assert "duration" in lit.n3()

    def test_unsupported_value(self):
        with pytest.raises(TermError):
            Literal(object())  # type: ignore[arg-type]


class TestVariable:
    def test_strips_question_mark(self):
        assert Variable("?x").name == "x"
        assert Variable("$x").name == "x"

    def test_n3(self):
        assert Variable("ds").n3() == "?ds"

    def test_equality(self):
        assert Variable("?a") == Variable("a")

    def test_rejects_bad_name(self):
        with pytest.raises(TermError):
            Variable("9bad")


class TestOrdering:
    def test_sort_ranks(self):
        items = [Variable("v"), Literal("l"), BlankNode("b"),
                 IRI("http://x/i")]
        ordered = sorted(items)
        assert isinstance(ordered[0], IRI)
        assert isinstance(ordered[1], BlankNode)
        assert isinstance(ordered[2], Literal)
        assert isinstance(ordered[3], Variable)

    def test_iri_order_is_the_n3_order(self):
        # IRIs compare without building their <...> forms, and must
        # still order as those forms do: "/" sorts before ">", so
        # .../a/b precedes .../a although it is longer.
        base = "http://x.org/"
        iris = [IRI(base + tail) for tail in
                ("a", "a/b", "a#x", "a0", "a/", "b", "a-")]
        terms = iris + [BlankNode("n"), Literal("a"), Literal(1),
                        Variable("v"), IRI(base)]
        for left in terms:
            for right in terms:
                assert (left < right) == \
                    (left._sort_key() < right._sort_key()), (left, right)
        assert sorted(terms) == sorted(terms, key=lambda t: t._sort_key())
        assert IRI(base + "a/b") < IRI(base + "a")
        assert not IRI(base + "a") < IRI(base + "a/b")
