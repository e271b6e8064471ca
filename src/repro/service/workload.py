"""The industrial serving workload (§6.3's APIs turned into traffic).

The §6.3 study (Table 6) grounds the reproduction in five widely used
APIs. This module turns those same APIs into a *query-serving* workload
for the concurrency layer: each API becomes one data source with one
concept, a handful of features and a wrapper whose fetch carries a small
simulated network latency (`time.sleep` — which releases the GIL, so
the workload behaves like real wrapper I/O under a thread pool). An
analyst panel re-poses the per-API queries with heavy duplication —
the dominant production pattern the batch API exploits: dedupe by
canonical OMQ key, evaluate each unique query once, overlap the wrapper
fetches.

Used by ``benchmarks/bench_concurrent_service.py``, the CI thread-stress
smoke step and the service tests; everything is deterministic (seeded
rows, fixed panel order).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.ontology import BDIOntology
from repro.core.release import Release, new_release
from repro.evolution.industrial import LI_ET_AL_COUNTS
from repro.evolution.release_builder import build_release
from repro.mdm.system import MDM
from repro.rdf.namespace import Namespace
from repro.wrappers.base import StaticWrapper

__all__ = ["IND", "LatencyWrapper", "IndustrialServingScenario",
           "build_industrial_service", "analyst_panel",
           "next_version_release"]

IND = Namespace("urn:industrial:")

#: per-API response fields served by the v1 wrappers (id is the ID)
_API_FIELDS: dict[str, list[str]] = {
    "google_calendar": ["summary", "start", "attendees"],
    "google_gadgets": ["title", "height"],
    "amazon_mws": ["sku", "price", "quantity"],
    "twitter_api": ["text", "retweets"],
    "sina_weibo": ["body", "reposts"],
}


def _slug(api_name: str) -> str:
    return api_name.lower().replace(" ", "_")


class LatencyWrapper(StaticWrapper):
    """A static wrapper whose fetch simulates remote-source latency.

    ``time.sleep`` drops the GIL, so concurrent fetches overlap exactly
    like real network I/O — the property the serving layer's thread
    pool exploits.
    """

    def __init__(self, *args: Any, latency: float = 0.0,
                 **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.latency = latency

    def fetch_rows(self, columns: Sequence[str] | None = None) -> list[dict]:
        if self.latency > 0:
            time.sleep(self.latency)
        return super().fetch_rows(columns=columns)


@dataclass
class IndustrialServingScenario:
    """Ontology + wrappers + per-API queries for the serving workload."""

    mdm: MDM
    #: source slug → the SPARQL OMQ analysts pose against that API
    queries: dict[str, str] = field(default_factory=dict)

    @property
    def ontology(self) -> BDIOntology:
        return self.mdm.ontology

    def query_texts(self) -> list[str]:
        """The unique per-API queries, in stable (insertion) order."""
        return list(self.queries.values())


def _api_query(slug: str, fields: list[str]) -> str:
    """The Code-3 template OMQ projecting the API's id + fields."""
    features = [IND[f"{slug}/id"]] + [IND[f"{slug}/{f}"] for f in fields]
    variables = " ".join(f"?v{i}" for i in range(1, len(features) + 1))
    values = " ".join(f"<{f}>" for f in features)
    triples = " .\n    ".join(
        f"<{IND[slug.title().replace('_', '')]}> G:hasFeature <{f}>"
        for f in features)
    return (f"SELECT {variables} WHERE {{\n"
            f"    VALUES ({variables}) {{ ({values}) }}\n"
            f"    {triples}\n}}")


def build_industrial_service(rows_per_wrapper: int = 24,
                             latency: float = 0.0,
                             ) -> IndustrialServingScenario:
    """Model the five §6.3 APIs as governed, queryable sources.

    *latency* is the simulated per-fetch wrapper delay in seconds (0 for
    pure-CPU tests; a few milliseconds to emulate remote sources in the
    throughput benchmark).
    """
    mdm = MDM()
    ontology = mdm.ontology
    scenario = IndustrialServingScenario(mdm=mdm)
    for counts in LI_ET_AL_COUNTS:
        slug = _slug(counts.api)
        fields = _API_FIELDS[slug]
        concept = ontology.globals.add_concept(
            IND[slug.title().replace("_", "")])
        ontology.globals.add_feature(concept, IND[f"{slug}/id"],
                                     is_id=True)
        for name in fields:
            ontology.globals.add_feature(concept, IND[f"{slug}/{name}"])

        rows = [{"id": i,
                 **{name: f"{slug}/{name}/{i}" for name in fields}}
                for i in range(rows_per_wrapper)]
        wrapper = LatencyWrapper(f"{slug}_v1", slug,
                                 id_attributes=["id"],
                                 non_id_attributes=fields,
                                 rows=rows, latency=latency)
        hints = {"id": IND[f"{slug}/id"],
                 **{name: IND[f"{slug}/{name}"] for name in fields}}
        release = build_release(ontology, slug, wrapper.name,
                                id_attributes=["id"],
                                non_id_attributes=fields,
                                feature_hints=hints)
        release.wrapper = wrapper
        new_release(ontology, release)
        scenario.queries[slug] = _api_query(slug, fields)
    return scenario


def next_version_release(scenario: IndustrialServingScenario,
                         slug: str = "twitter_api",
                         rows_per_wrapper: int = 24,
                         latency: float = 0.0,
                         version: int = 2) -> Release:
    """A ready-to-apply v*version* release for one of the scenario's APIs.

    The new wrapper maps the same features (same attribute names keep
    their §3.2 semantics) but serves a fresh, disjoint row set, so the
    API's query answer visibly changes when the release lands — the
    signal the release-under-load benchmark uses to detect stale or
    torn answers.
    """
    fields = _API_FIELDS[slug]
    rows = [{"id": rows_per_wrapper * (version - 1) + i,
             **{name: f"{slug}/v{version}/{name}/{i}"
                for name in fields}}
            for i in range(rows_per_wrapper)]
    wrapper = LatencyWrapper(f"{slug}_v{version}", slug,
                             id_attributes=["id"],
                             non_id_attributes=fields,
                             rows=rows, latency=latency)
    hints = {"id": IND[f"{slug}/id"],
             **{name: IND[f"{slug}/{name}"] for name in fields}}
    release = build_release(scenario.ontology, slug, wrapper.name,
                            id_attributes=["id"],
                            non_id_attributes=fields,
                            feature_hints=hints)
    release.wrapper = wrapper
    return release


def analyst_panel(scenario: IndustrialServingScenario,
                  analysts: int = 8) -> list[str]:
    """*analysts* concurrent analysts each posing every API's query.

    The panel interleaves analysts (a1's five queries, a2's five, ...),
    so duplicates are spread across the batch the way independent users
    produce them. ``len(panel) == analysts * 5`` with exactly five
    unique canonical keys.
    """
    queries = scenario.query_texts()
    return [query for _ in range(analysts) for query in queries]
