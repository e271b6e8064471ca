"""Ontology growth analysis over release histories (paper §6.4, Fig. 11).

Replays a release history against a fresh BDI ontology — one wrapper
providing all attributes per release, exactly the paper's assumption —
and measures, per release, the number of triples added to S (split by
kind: new sources/wrappers/attributes vs ``S:hasAttribute`` edges), to M,
and the cumulative totals. :func:`ascii_chart` renders the Figure 11
bar-plus-cumulative-line view on a terminal.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ontology import BDIOntology
from repro.core.release import Release, new_release
from repro.evolution.release_builder import build_release
from repro.evolution.wordpress import WORDPRESS_RELEASES, \
    WordpressRelease, all_wordpress_fields
from repro.rdf.namespace import Namespace, S as S_NS

__all__ = ["GrowthRecord", "replay_wordpress", "wordpress_release",
           "ascii_chart"]

#: Domain vocabulary for the Wordpress study.
WP = Namespace("urn:wordpress:")


@dataclass
class GrowthRecord:
    """Triples added by one release (the bars of Figure 11)."""

    version: str
    wrapper: str
    added_s: int
    added_m: int
    added_lav: int
    added_g: int
    has_attribute_edges: int
    new_attributes: int
    cumulative_s: int


def _prepare_global_graph(ontology: BDIOntology) -> None:
    """Model the Post concept with every feature ever served.

    The steward models the domain once; minor releases map renamed
    attributes onto existing features, so G does not grow during the
    replay — the paper's "Notice also that G does not grow".
    """
    post = ontology.globals.add_concept(WP.Post)
    ontology.globals.add_feature(post, WP["post/id"], is_id=True)
    for name in all_wordpress_fields():
        feature = WP[f"post/{_canonical_feature(name)}"]
        if not ontology.globals.is_feature(feature):
            ontology.globals.add_feature(post, feature)


#: attribute name → canonical feature local name (rename classes).
_FEATURE_ALIASES = {
    "ID": "id",
    "featured_image": "featured_media",
    "meta_fields": "meta",
    "post_meta": "meta",
    "content_raw": "content",
}


def _canonical_feature(attribute: str) -> str:
    return _FEATURE_ALIASES.get(attribute, attribute)


def wordpress_release(ontology: BDIOntology,
                      spec: WordpressRelease) -> Release:
    """The release ``⟨w, G, F⟩`` of one Wordpress version.

    The wrapper is ``wp_v<version>``; the steward's hints align renamed
    attributes with their canonical Post feature.
    """
    name = f"wp_v{spec.version.replace('.', '_')}"
    id_attr = "ID" if "ID" in spec.fields else "id"
    hints = {field: WP[f"post/{_canonical_feature(field)}"]
             for field in spec.fields}
    return build_release(
        ontology, "wordpress_posts", name, id_attributes=[id_attr],
        non_id_attributes=[f for f in spec.fields if f != id_attr],
        feature_hints=hints)


def replay_wordpress(releases: list[WordpressRelease] | None = None,
                     ) -> tuple[BDIOntology, list[GrowthRecord]]:
    """Replay the Wordpress history; return the ontology and the records."""
    history = releases if releases is not None else WORDPRESS_RELEASES
    ontology = BDIOntology()
    _prepare_global_graph(ontology)

    records: list[GrowthRecord] = []
    cumulative_s = len(ontology.s)

    for release_spec in history:
        attrs_before = len(ontology.sources.attributes())
        s_before = len(ontology.s)
        m_before = len(ontology.m)
        g_before = len(ontology.g)
        lav_before = ontology.triple_counts()["lav_graphs"]
        edges_before = ontology.s.count(None, S_NS.hasAttribute, None)

        release = wordpress_release(ontology, release_spec)
        new_release(ontology, release)

        added_s = len(ontology.s) - s_before
        cumulative_s += added_s
        records.append(GrowthRecord(
            version=release_spec.version,
            wrapper=release.wrapper_name,
            added_s=added_s,
            added_m=len(ontology.m) - m_before,
            added_lav=ontology.triple_counts()["lav_graphs"] - lav_before,
            added_g=len(ontology.g) - g_before,
            has_attribute_edges=(
                ontology.s.count(None, S_NS.hasAttribute, None)
                - edges_before),
            new_attributes=(len(ontology.sources.attributes())
                            - attrs_before),
            cumulative_s=cumulative_s,
        ))
    return ontology, records


def ascii_chart(records: list[GrowthRecord], width: int = 50) -> str:
    """Figure 11 as an ASCII chart: bars = added triples to S per release,
    trailing column = cumulative S size (the paper's red line)."""
    if not records:
        return "(no releases)"
    peak = max(r.added_s for r in records) or 1
    lines = [
        f"{'release':>8} | {'triples added to S':<{width}} |"
        f" {'+S':>5} | {'cum S':>6}",
        "-" * (width + 28),
    ]
    for record in records:
        bar = "#" * max(1, round(width * record.added_s / peak))
        lines.append(
            f"{record.version:>8} | {bar:<{width}} |"
            f" {record.added_s:>5} | {record.cumulative_s:>6}")
    return "\n".join(lines)
