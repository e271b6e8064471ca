"""Stateful differential oracle for cached answers.

One :class:`~hypothesis.stateful.RuleBasedStateMachine` drives the
SUPERSEDE running example, with the Wordpress Post concept modelled
next to it, through random interleavings of:

* an additive Wordpress release (a new wrapper for Post);
* the w4 release, which touches only the VoD concepts;
* in-place churn of one wrapper through ``update_rows``;
* a bare ``bind_wrapper`` rebind of a Post wrapper;
* a plain query.

Every step ends with one query through a
:class:`~repro.api.client.GovernedClient` over an
:class:`~repro.api.client.InProcessTransport`, and asserts:

* bag equality with the naive evaluator at the same fingerprint;
* no patch fallback counted under a programming-error class;
* the outcome the answer-cache stats show, where the model knows it:
  churn alone gives a patch or a seed, a release that touched only
  other concepts gives a kept hit, and an additive release on the
  query's concept with no data change gives an extended answer.
"""

from __future__ import annotations

import itertools

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.api import GovernedClient, InProcessTransport
from repro.core.release import new_release
from repro.datasets import EXEMPLARY_QUERY, build_supersede
from repro.datasets.supersede import register_w4
from repro.evolution.growth import WP, _prepare_global_graph, \
    wordpress_release
from repro.evolution.wordpress import WORDPRESS_RELEASES
from repro.mdm import MDM
from repro.query.engine import QueryEngine
from repro.wrappers.base import StaticWrapper

FEEDBACK_QUERY = """
SELECT ?x ?y WHERE {
    VALUES (?x ?y) { (sup:applicationId dct:description) }
    sc:SoftwareApplication G:hasFeature sup:applicationId .
    sc:SoftwareApplication sup:hasFGTool sup:FeedbackGathering .
    sup:FeedbackGathering sup:generatesFeedback duv:UserFeedback .
    duv:UserFeedback G:hasFeature dct:description
}
"""


def posts_query(*features: str) -> str:
    variables = " ".join(f"?v{i}" for i in range(len(features)))
    values = " ".join(f"<{WP[f'post/{f}']}>" for f in features)
    pattern = " .\n".join(
        f"<{WP.Post}> G:hasFeature <{WP[f'post/{f}']}>" for f in features)
    return (f"SELECT {variables} WHERE {{ VALUES ({variables}) "
            f"{{ ({values}) }}\n{pattern} }}")


#: query → whether it asks for the Post concept alone
QUERIES = {
    posts_query("title"): True,
    posts_query("id", "title"): True,
    FEEDBACK_QUERY: False,
    EXEMPLARY_QUERY: False,
}
PAIRS = [(query, distinct) for query in QUERIES
         for distinct in (True, False)]

#: counters that tell the outcome of one answer apart
OUTCOME_COUNTERS = ("hits", "kept", "extended", "patches", "seeds",
                    "fallbacks", "stores")

#: fallback error classes that mean a bug, not an ordinary fallback
PROGRAMMING_ERRORS = {"TypeError", "AttributeError", "NameError"}


def oracle(ontology, query: str, distinct: bool):
    return QueryEngine(ontology, use_planner=False, use_cache=False,
                       use_answer_cache=False).answer(query,
                                                      distinct=distinct)


class CachedAnswerMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.scenario = build_supersede()
        self.ontology = self.scenario.ontology
        _prepare_global_graph(self.ontology)
        self.posts: list[str] = []
        self.next_release = 0
        self.release_posts()
        self.mdm = MDM(self.ontology)
        self.client = GovernedClient(
            InProcessTransport(self.mdm.serving().endpoint))
        self.stats = self.mdm.engine.answer_cache.stats
        self.serial = itertools.count()
        #: pair → what happened to its inputs since it was last
        #: answered (``None``: never answered)
        self.events: dict[tuple[str, bool], set[str] | None] = \
            dict.fromkeys(PAIRS)
        #: pair → the wrappers its last answer read
        self.reads: dict[tuple[str, bool], frozenset[str]] = {}
        #: query → generation of its cached rewriting, and whether an
        #: additive release on its concept landed since that was made
        self.generation = dict.fromkeys(QUERIES, 0)
        self.pending = dict.fromkeys(QUERIES, False)
        #: pair → generation of the rewriting its cached answer holds
        self.held: dict[tuple[str, bool], int] = {}

    def teardown(self) -> None:
        self.mdm.serving().close()

    # -- the model -----------------------------------------------------------

    def note(self, event: str, pairs) -> None:
        for pair in pairs:
            if self.events[pair] is not None:
                self.events[pair].add(event)

    def expected(self, pair: tuple[str, bool]) -> set[str] | None:
        """The outcomes the model allows for *pair*'s next answer, or
        ``None`` when it does not know."""
        events = self.events[pair]
        if events is None or events == {"rebind"}:
            return {"stored"}
        if not events:
            return {"hit"}
        if events == {"other"}:
            return {"kept"}
        if events <= {"same", "other"}:
            # The current rewriting extends the one before it, so an
            # answer its sibling pair extended first is recomputed.
            held = self.held[pair]
            return {"extended" if held == self.generation[pair[0]] - 1
                    else "stored"}
        if events == {"churn"}:
            return {"patched", "seeded"}
        return None

    @staticmethod
    def outcome(delta: dict[str, int]) -> str:
        if delta["kept"]:
            return "kept"
        if delta["hits"]:
            return "hit"
        if delta["extended"]:
            return "extended"
        if delta["fallbacks"]:
            return "fallback"
        if delta["patches"]:
            return "patched"
        if delta["seeds"]:
            return "seeded"
        return "stored" if delta["stores"] else "uncached"

    def observe(self, pair: tuple[str, bool]) -> None:
        """Answer *pair* through the client and check it."""
        query, distinct = pair
        if self.pending[query]:
            self.pending[query] = False
            self.generation[query] += 1
        allowed = self.expected(pair)
        before = {name: getattr(self.stats, name)
                  for name in OUTCOME_COUNTERS}
        response = self.client.query(query, distinct=distinct)
        snapshot = self.stats.snapshot()
        delta = {name: snapshot[name] - before[name]
                 for name in OUTCOME_COUNTERS}
        assert response.relation == oracle(self.ontology, query, distinct)
        assert not PROGRAMMING_ERRORS & set(snapshot["fallback_errors"])
        if allowed is not None:
            assert self.outcome(delta) in allowed, (allowed, delta)
        self.events[pair] = set()
        self.held[pair] = self.generation[query]
        self.reads[pair] = frozenset(
            name for walk in self.mdm.engine.rewrite(query).walks
            for name in walk.wrapper_names)

    # -- steps ---------------------------------------------------------------

    def release_posts(self) -> None:
        """Land the next Wordpress release, with three inline rows."""
        index = self.next_release
        release = wordpress_release(self.ontology,
                                    WORDPRESS_RELEASES[index])
        release.wrapper = StaticWrapper(
            release.wrapper_name, release.source_name,
            release.id_attributes, release.non_id_attributes,
            rows=[{a: f"{release.wrapper_name}-{a}-{j}"
                   for a in release.attributes} for j in range(3)])
        new_release(self.ontology, release,
                    absorbed_concepts={WP.Post} if index == 0 else None)
        self.posts.append(release.wrapper_name)
        self.next_release += 1

    @precondition(lambda self: self.next_release < 6)
    @rule(pair=st.sampled_from(PAIRS))
    def wordpress_release(self, pair) -> None:
        self.release_posts()
        for query, posts in QUERIES.items():
            self.pending[query] |= posts
        self.note("same", [p for p in PAIRS if QUERIES[p[0]]])
        self.note("other", [p for p in PAIRS if not QUERIES[p[0]]])
        self.observe(pair)

    @precondition(lambda self: "w4" not in self.scenario.wrappers)
    @rule(pair=st.sampled_from(PAIRS))
    def w4_release(self, pair) -> None:
        register_w4(self.scenario)
        self.note("other", [p for p in PAIRS if p[0] != EXEMPLARY_QUERY])
        self.note("w4", [p for p in PAIRS if p[0] == EXEMPLARY_QUERY])
        self.observe(pair)

    @rule(pair=st.sampled_from(PAIRS), pick=st.integers(0, 63),
          row=st.integers(0, 7))
    def churn(self, pair, pick: int, row: int) -> None:
        names = self.posts + ["w3"]
        name = names[pick % len(names)]
        wrapper = self.ontology.physical_wrapper(name)
        target = row % len(wrapper.fetch_rows())
        position = itertools.count()
        field = "appId" if name == "w3" else "title"
        changed = wrapper.update_rows(
            lambda _: next(position) == target,
            {field: f"churn-{next(self.serial)}"})
        assert changed == 1
        self.note("churn", [p for p in PAIRS
                            if name in self.reads.get(p, ())])
        self.observe(pair)

    @rule(pair=st.sampled_from(PAIRS), pick=st.integers(0, 63))
    def rebind(self, pair, pick: int) -> None:
        name = self.posts[pick % len(self.posts)]
        old = self.ontology.physical_wrapper(name)
        self.ontology.bind_wrapper(StaticWrapper(
            old.name, old.source_name, old.id_attributes,
            old.non_id_attributes, rows=old.fetch_rows()))
        self.note("rebind", [p for p in PAIRS
                             if name in self.reads.get(p, ())])
        self.observe(pair)

    @rule(pair=st.sampled_from(PAIRS))
    def query(self, pair) -> None:
        self.observe(pair)


CachedAnswerMachine.TestCase.settings = settings(
    max_examples=50, stateful_step_count=20, deadline=None,
    derandomize=True)
TestCachedAnswers = CachedAnswerMachine.TestCase
