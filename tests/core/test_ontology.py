"""Unit tests for the BDIOntology facade (using the SUPERSEDE fixture)."""

import pytest

from repro.core.ontology import BDIOntology
from repro.core.vocabulary import mapping_graph_uri, wrapper_uri
from repro.errors import OntologyError, UnknownWrapperError
from repro.rdf.namespace import SC, SUP
from repro.rdf.namespace import DUV
from repro.rdf.sparql import select


class TestOntologyQueries:
    def test_id_features_of(self, ontology):
        assert ontology.id_features_of(SUP.Monitor) == [SUP.monitorId]

    def test_id_features_empty_for_event_concept(self, ontology):
        assert ontology.id_features_of(SUP.InfoMonitor) == []

    def test_wrappers_providing(self, ontology):
        providers = ontology.wrappers_providing(SUP.Monitor,
                                                SUP.monitorId)
        assert providers == [wrapper_uri("w1"), wrapper_uri("w3")]

    def test_wrappers_providing_lag_ratio(self, ontology):
        providers = ontology.wrappers_providing(SUP.InfoMonitor,
                                                SUP.lagRatio)
        assert providers == [wrapper_uri("w1")]

    def test_edge_providers_directed(self, ontology):
        forward = ontology.edge_providers(SC.SoftwareApplication,
                                          SUP.Monitor)
        backward = ontology.edge_providers(SUP.Monitor,
                                           SC.SoftwareApplication)
        assert forward == [wrapper_uri("w3")]
        assert backward == []

    def test_attribute_providing(self, ontology):
        attr = ontology.attribute_providing(wrapper_uri("w1"),
                                            SUP.monitorId)
        assert str(attr).endswith("D1/VoDmonitorId")

    def test_attribute_providing_missing(self, ontology):
        assert ontology.attribute_providing(wrapper_uri("w2"),
                                            SUP.monitorId) is None

    def test_feature_of_attribute(self, ontology):
        attr = ontology.attribute_providing(wrapper_uri("w1"),
                                            SUP.lagRatio)
        assert ontology.feature_of_attribute(attr) == SUP.lagRatio

    def test_lav_subgraph(self, ontology):
        lav = ontology.lav_subgraph(wrapper_uri("w1"))
        assert lav.contains(SUP.Monitor, SUP.generatesQoS,
                            SUP.InfoMonitor)

    def test_lav_subgraph_missing(self, ontology):
        with pytest.raises(OntologyError):
            ontology.lav_subgraph(wrapper_uri("ghost"))


class TestReadsDoNotMutate:
    """A query is a read: it runs under a read lock and must leave T —
    and so every fingerprint-keyed cache — untouched."""

    def test_absent_from_graph_is_not_created(self):
        ontology = BDIOntology()
        names = ontology.dataset.graph_names()
        mutations = ontology.dataset.mutation_count()
        fingerprint = ontology.fingerprint()
        ghost = mapping_graph_uri("ghost")
        rows = select(ontology.dataset,
                      f"SELECT ?s FROM <{ghost}> WHERE {{ ?s ?p ?o }}")
        assert rows == []
        assert ontology.dataset.graph_names() == names
        assert ontology.dataset.mutation_count() == mutations
        assert ontology.fingerprint() == fingerprint


class TestSchemas:
    def test_wrapper_relation_schema(self, ontology):
        schema = ontology.wrapper_relation_schema("w1")
        assert schema.notation() == "w1({D1/VoDmonitorId}, {D1/lagRatio})"

    def test_w3_all_ids(self, ontology):
        schema = ontology.wrapper_relation_schema("w3")
        assert schema.non_id_names == frozenset()
        assert len(schema.id_names) == 3

    def test_unknown_wrapper(self, ontology):
        with pytest.raises(UnknownWrapperError):
            ontology.wrapper_relation_schema("ghost")

    def test_wrapper_names(self, ontology):
        assert ontology.wrapper_names() == ["w1", "w2", "w3"]


class TestPhysicalBinding:
    def test_data_provider(self, ontology):
        rel = ontology.data_provider("w1")
        assert len(rel) == 3
        assert "D1/lagRatio" in rel.schema.attribute_names

    def test_unbound_wrapper(self, ontology):
        with pytest.raises(UnknownWrapperError):
            ontology.data_provider("ghost")

    def test_has_physical_wrapper(self, ontology):
        assert ontology.has_physical_wrapper("w2")
        assert not ontology.has_physical_wrapper("nope")


class TestStatsAndValidation:
    def test_triple_counts_keys(self, ontology):
        counts = ontology.triple_counts()
        assert set(counts) == {"G", "S", "M", "lav_graphs", "total"}
        assert counts["total"] == (counts["G"] + counts["S"] +
                                   counts["M"] + counts["lav_graphs"])

    def test_supersede_validates_clean(self, ontology):
        assert ontology.validate() == []

    def test_evolved_scenario_validates_clean(self, evolved_scenario):
        assert evolved_scenario.ontology.validate() == []

    def test_user_feedback_concept_present(self, ontology):
        assert ontology.globals.is_concept(DUV.UserFeedback)
