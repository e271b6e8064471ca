"""The SUPERSEDE running example (paper §2.1, Figures 2-6, Tables 1-2).

Builds the complete scenario:

* the Global graph for the UML of Figure 2 (concepts, features, object
  properties, ID taxonomy, datatypes);
* three data sources with wrappers — ``D1/w1`` (VoD monitor events via a
  MongoDB-style aggregation, Code 2), ``D2/w2`` (textual feedback),
  ``D3/w3`` (application↔tool relationships);
* optionally the evolution step of §2.1: a new API version of ``D1``
  renames ``lagRatio`` to ``bufferingRatio``, registered as wrapper
  ``w4`` through Algorithm 1;
* the LAV mapping subgraphs and ``F`` functions of all wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.ontology import BDIOntology
from repro.core.release import Release, new_release
from repro.rdf.graph import Graph
from repro.rdf.namespace import DCT, DUV, SC, SUP, XSD, G as G_NS
from repro.rdf.term import IRI
from repro.sources.document_store import DocumentStore
from repro.sources.generators import (
    PAPER_FEEDBACK_EVENTS, PAPER_RELATIONSHIPS, PAPER_VOD_EVENTS,
    application_relationships, feedback_events, vod_monitor_events,
)
from repro.sources.registry import DataSource, SourceRegistry
from repro.wrappers.base import StaticWrapper, Wrapper
from repro.wrappers.mongo import MongoWrapper

__all__ = ["SupersedeScenario", "build_supersede", "EXEMPLARY_QUERY"]

#: Code 8: the running example's OMQ — for each applicationId, all its
#: lagRatio instances.
EXEMPLARY_QUERY = """
SELECT ?x ?y
FROM <http://www.essi.upc.edu/~snadal/BDIOntology/Global>
WHERE {
    VALUES (?x ?y) { (sup:applicationId sup:lagRatio) }
    sc:SoftwareApplication G:hasFeature sup:applicationId .
    sc:SoftwareApplication sup:hasMonitor sup:Monitor .
    sup:Monitor sup:generatesQoS sup:InfoMonitor .
    sup:InfoMonitor G:hasFeature sup:lagRatio
}
"""


@dataclass
class SupersedeScenario:
    """Everything needed to run the paper's examples end to end."""

    ontology: BDIOntology
    store: DocumentStore
    registry: SourceRegistry
    wrappers: dict[str, Wrapper] = field(default_factory=dict)


def _build_global_graph(ontology: BDIOntology) -> None:
    """Instantiate G for the UML conceptual model of Figure 2."""
    g = ontology.globals

    software_app = g.add_concept(SC.SoftwareApplication)
    monitor = g.add_concept(SUP.Monitor)
    feedback_gathering = g.add_concept(SUP.FeedbackGathering)
    info_monitor = g.add_concept(SUP.InfoMonitor)
    user_feedback = g.add_concept(DUV.UserFeedback)

    # Features. Per Figure 3 the generic toolId is made explicit and
    # distinguishable per tool concept; IDs form a taxonomy under
    # sc:identifier.
    g.add_feature(software_app, SUP.applicationId,
                  datatype=XSD.integer, is_id=True)
    g.add_feature(monitor, SUP.monitorId,
                  datatype=XSD.integer, is_id=True)
    g.add_feature(feedback_gathering, SUP.feedbackGatheringId,
                  datatype=XSD.integer, is_id=True)
    g.add_feature(info_monitor, SUP.lagRatio, datatype=XSD.double)
    g.add_feature(info_monitor, SUP.bitrate, datatype=XSD.integer)
    g.add_feature(info_monitor, SC.dateCreated, datatype=XSD.long)
    g.add_feature(user_feedback, DCT.description, datatype=XSD.string)

    # Domain object properties (UML associations).
    g.add_property(software_app, SUP.hasMonitor, monitor)
    g.add_property(software_app, SUP.hasFGTool, feedback_gathering)
    g.add_property(monitor, SUP.generatesQoS, info_monitor)
    g.add_property(feedback_gathering, SUP.generatesFeedback, user_feedback)


def _subgraph(ontology: BDIOntology, triples: list[tuple]) -> Graph:
    """Build a release subgraph, asserting each triple exists in G."""
    graph = Graph()
    for s, p, o in triples:
        graph.add((IRI(str(s)), IRI(str(p)), IRI(str(o))))
    return graph


def w1_release_subgraph(ontology: BDIOntology) -> Graph:
    """LAV(w1): Monitor —generatesQoS→ InfoMonitor with their features."""
    return _subgraph(ontology, [
        (SUP.Monitor, SUP.generatesQoS, SUP.InfoMonitor),
        (SUP.Monitor, G_NS.hasFeature, SUP.monitorId),
        (SUP.InfoMonitor, G_NS.hasFeature, SUP.lagRatio),
    ])


def w2_release_subgraph(ontology: BDIOntology) -> Graph:
    """LAV(w2): FeedbackGathering —generatesFeedback→ UserFeedback."""
    return _subgraph(ontology, [
        (SUP.FeedbackGathering, SUP.generatesFeedback, DUV.UserFeedback),
        (SUP.FeedbackGathering, G_NS.hasFeature, SUP.feedbackGatheringId),
        (DUV.UserFeedback, G_NS.hasFeature, DCT.description),
    ])


def w3_release_subgraph(ontology: BDIOntology) -> Graph:
    """LAV(w3): the relationship API spanning both tool associations."""
    return _subgraph(ontology, [
        (SC.SoftwareApplication, SUP.hasMonitor, SUP.Monitor),
        (SC.SoftwareApplication, SUP.hasFGTool, SUP.FeedbackGathering),
        (SC.SoftwareApplication, G_NS.hasFeature, SUP.applicationId),
        (SUP.Monitor, G_NS.hasFeature, SUP.monitorId),
        (SUP.FeedbackGathering, G_NS.hasFeature, SUP.feedbackGatheringId),
    ])


#: Code 2: the w1 aggregation pipeline (MongoDB Aggregation Framework).
W1_PIPELINE = [
    {"$project": {
        "_id": 0,
        "VoDmonitorId": "$monitorId",
        "lagRatio": {"$divide": ["$waitTime", "$watchTime"]},
    }},
]

#: The evolved pipeline behind w4 (lagRatio renamed to bufferingRatio).
W4_PIPELINE = [
    {"$project": {
        "_id": 0,
        "VoDmonitorId": "$monitorId",
        "bufferingRatio": {"$divide": ["$waitTime", "$watchTime"]},
    }},
]

#: Documents served by the evolved VoD API (used when w4 is registered).
EVOLVED_VOD_EVENTS: list[dict] = [
    {"monitorId": 12, "timestamp": 1475020424, "bitrate": 8,
     "waitTime": 1, "watchTime": 4},
    {"monitorId": 18, "timestamp": 1475020460, "bitrate": 8,
     "waitTime": 3, "watchTime": 12},
]


def build_supersede(with_evolution: bool = False,
                    event_count: int | None = None,
                    seed: int = 0) -> SupersedeScenario:
    """Build the full SUPERSEDE scenario.

    Parameters
    ----------
    with_evolution:
        also register the ``w4`` release (the §2.1 evolution step).
    event_count:
        ``None`` loads the exact documents behind Tables 1-2; an integer
        generates that many synthetic events per stream instead.
    """
    ontology = BDIOntology()
    _build_global_graph(ontology)

    store = DocumentStore()
    if event_count is None:
        vod_docs = PAPER_VOD_EVENTS
        feedback_docs = PAPER_FEEDBACK_EVENTS
        relationship_rows = PAPER_RELATIONSHIPS
    else:
        vod_docs = vod_monitor_events(event_count, seed=seed)
        feedback_docs = feedback_events(event_count, seed=seed)
        relationship_rows = application_relationships(
            max(2, event_count // 2), seed=seed)
    store.collection("vod").insert_many(vod_docs)
    store.collection("feedback").insert_many(feedback_docs)

    registry = SourceRegistry()
    d1 = registry.add(DataSource("D1", "VoD monitoring REST API"))
    d2 = registry.add(DataSource("D2", "Feedback gathering REST API"))
    d3 = registry.add(DataSource("D3", "Tool relationship REST API"))

    # -- w1 (Code 2) -----------------------------------------------------------
    w1 = MongoWrapper(
        "w1", "D1", store, "vod", W1_PIPELINE,
        id_attributes=["VoDmonitorId"], non_id_attributes=["lagRatio"])
    d1.register_wrapper(w1)
    new_release(ontology, Release.for_wrapper(
        w1, w1_release_subgraph(ontology),
        {"VoDmonitorId": SUP.monitorId, "lagRatio": SUP.lagRatio}))

    # -- w2 --------------------------------------------------------------------
    w2 = MongoWrapper(
        "w2", "D2", store, "feedback",
        [{"$project": {"_id": 0, "FGId": "$feedbackGatheringId",
                       "tweet": "$text"}}],
        id_attributes=["FGId"], non_id_attributes=["tweet"])
    d2.register_wrapper(w2)
    new_release(ontology, Release.for_wrapper(
        w2, w2_release_subgraph(ontology),
        {"FGId": SUP.feedbackGatheringId, "tweet": DCT.description}))

    # -- w3 --------------------------------------------------------------------
    w3 = StaticWrapper(
        "w3", "D3",
        id_attributes=["TargetApp", "MonitorId", "FeedbackId"],
        non_id_attributes=[],
        rows=relationship_rows,
        projection={"TargetApp": "appId", "MonitorId": "monitorTool",
                    "FeedbackId": "feedbackTool"})
    d3.register_wrapper(w3)
    new_release(ontology, Release.for_wrapper(
        w3, w3_release_subgraph(ontology),
        {"TargetApp": SUP.applicationId, "MonitorId": SUP.monitorId,
         "FeedbackId": SUP.feedbackGatheringId}))

    scenario = SupersedeScenario(
        ontology=ontology, store=store, registry=registry,
        wrappers={"w1": w1, "w2": w2, "w3": w3})

    if with_evolution:
        register_w4(scenario)
    return scenario


def register_w4(scenario: SupersedeScenario) -> Wrapper:
    """Apply the §2.1 evolution: new D1 API version with bufferingRatio.

    Returns the new wrapper. Mirrors the release example of §4.1:
    ``w4(VoDmonitorId, bufferingRatio)`` with
    ``F = {VoDmonitorId ↦ sup:monitorId, bufferingRatio ↦ sup:lagRatio}``.
    """
    scenario.store.collection("vod_v2").insert_many(EVOLVED_VOD_EVENTS)
    w4 = MongoWrapper(
        "w4", "D1", scenario.store, "vod_v2", W4_PIPELINE,
        id_attributes=["VoDmonitorId"], non_id_attributes=["bufferingRatio"])
    scenario.registry.source("D1").register_wrapper(w4)
    new_release(scenario.ontology, Release.for_wrapper(
        w4, w1_release_subgraph(scenario.ontology),
        {"VoDmonitorId": SUP.monitorId, "bufferingRatio": SUP.lagRatio}))
    scenario.wrappers["w4"] = w4
    return w4
