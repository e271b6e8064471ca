"""End-to-end query answering (the MDM querying pipeline, Figure 9).

:class:`QueryEngine` ties everything together: an analyst poses a SPARQL
OMQ; the engine parses it (Code 3 template), rewrites it into a union of
walks over wrappers (Algorithms 2-5) and evaluates the relational
expression against the bound physical wrappers.

Rewriting is memoized in a release-aware :class:`~repro.query.cache.
RewriteCache` (on by default): repeated queries — the dominant analyst
workload — skip Algorithms 2-5 entirely, and a release landing through
Algorithm 1 invalidates only the cached rewritings whose concepts the
release touched. A purely additive release does not even do that to a
single-concept rewriting: the rewriting is extended by the walks over
the wrapper the release added.

For multi-analyst workloads, :meth:`QueryEngine.answer_many` answers a
whole batch at once: queries are deduplicated by canonical OMQ key
(textual variants of one OMQ collapse onto one unit of work), each
unique query is rewritten exactly once, cached answers are served
inline, and the evaluation of the rest fans out across a thread pool.
The engine's internal state (parse memo, rewrite cache) is thread-safe;
consistency of answers *across* a concurrently landing release is the
serving layer's job
(:class:`repro.service.GovernedService`).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence

from repro.core.ontology import BDIOntology
from repro.errors import UnanswerableQueryError
from repro.query.answer_cache import (
    Action, AnswerCache, AnswerCacheStats, CachedAnswer,
    answer_cache_env_enabled,
)
from repro.query.cache import CacheStats, Extension, RewriteCache, \
    canonical_omq_key
from repro.query.omq import OMQ, parse_omq
from repro.query.planner import PhysicalPlan, new_collector, plan_ucq
from repro.query.rewriter import RewritingResult, rewrite
from repro.query.ucq import UCQ
from repro.relational.columnar import concat_batches
from repro.relational.metrics import PlanMetrics, scan_timings
from repro.relational.physical import (
    CachingScanProvider, ScanCache, ScanProvider, WrapperScanProvider,
)
from repro.relational.rows import Relation
from repro.streaming.standing import StandingQuery
from repro.util.lru import LRU

__all__ = ["QueryEngine"]

#: bound of the SPARQL-text → OMQ parse memo (LRU entries)
PARSE_MEMO_MAX = 1024

#: per-query PlanMetrics trees retained for explain/describe (LRU)
METRICS_LOG_MAX = 32


def _wrapper_names(result: RewritingResult) -> tuple[str, ...]:
    """The wrappers the walks of *result* read, sorted; memoized on the
    result like its plans (every plan of it scans exactly these)."""
    names: "tuple[str, ...] | None" = result.__dict__.get("_wrappers")
    if names is None:
        names = tuple(sorted({name for walk in result.walks
                              for name in walk.wrapper_names}))
        result.__dict__["_wrappers"] = names
    return names


class QueryEngine:
    """Analyst-facing query interface over a BDI ontology."""

    def __init__(self, ontology: BDIOntology,
                 prefixes: dict[str, str] | None = None,
                 use_cache: bool = True,
                 use_planner: bool = True,
                 use_answer_cache: bool = True) -> None:
        self.ontology = ontology
        self.prefixes = dict(prefixes or {})
        #: route evaluation through the physical planner (projection
        #: pushdown, shared scans, encoded/fused execution);
        #: False = naive logical evaluation, the reference oracle the
        #: equivalence suites and ``bench_columnar`` compare against.
        self.use_planner = use_planner
        #: canonical OMQ key → last run's PlanMetrics tree (LRU-bounded
        #: observability feed of explain(analyze=True) and describe)
        self._metrics_log: LRU[str, PlanMetrics] = \
            LRU(METRICS_LOG_MAX)  # guarded-by: _metrics_lock
        self._metrics_lock = threading.Lock()
        #: release-aware rewriting cache (None when use_cache is False)
        self.cache: RewriteCache | None = \
            RewriteCache() if use_cache else None
        #: full answer cache (canonical OMQ key + fingerprint + scanned
        #: data_versions → materialized relation); validity evidence
        #: re-checked per lookup. A cached answer whose only
        #: staleness is advanced wrapper data_versions is *patched*
        #: through a standing query fed by CDC deltas — O(Δ) per
        #: refresh — instead of re-executed. None when disabled — via
        #: ``use_answer_cache=False`` or the ``REPRO_ANSWER_CACHE=0``
        #: environment switch, which reaches processes no constructor
        #: call does (a fleet's replicas).
        self.answer_cache: AnswerCache | None = (
            AnswerCache()
            if use_answer_cache and answer_cache_env_enabled()
            else None)
        #: SPARQL text → (parsed OMQ, canonical key) memo, LRU-bounded,
        #: valid for the prefix bindings it was built under. Guarded by
        #: _parse_lock:
        #: the stale-memo check and the clear happen under the same
        #: critical section, so a concurrent parse can never revive an
        #: entry built under the previous prefix bindings.
        self._parse_memo: LRU[str, tuple[OMQ, str]] = LRU(PARSE_MEMO_MAX)
        self._parse_memo_prefixes = dict(self.prefixes)
        self._parse_lock = threading.Lock()

    # -- pipeline stages ----------------------------------------------------

    def _parse(self, query: OMQ | str) -> tuple[OMQ, str]:
        """The parsed OMQ and its :func:`canonical_omq_key`.

        Both are memoized per SPARQL text, so repeated text neither
        re-parses nor re-hashes.
        """
        if not isinstance(query, str):
            return query, canonical_omq_key(query)
        with self._parse_lock:
            if self._parse_memo_prefixes != self.prefixes:
                self._parse_memo.clear()
                self._parse_memo_prefixes = dict(self.prefixes)
            parsed = self._parse_memo.get(query)
            if parsed is not None:
                return parsed
            prefixes = dict(self.prefixes)
        # Parse outside the lock (pure function of text + prefixes), so
        # concurrent cold parses of distinct queries do not serialize.
        omq = parse_omq(query, prefixes)
        parsed = (omq, canonical_omq_key(omq))
        with self._parse_lock:
            if self._parse_memo_prefixes == prefixes:
                self._parse_memo.put(query, parsed)
        return parsed

    def _rewrite_parsed(self, omq: OMQ, key: str) -> RewritingResult:
        """Cache-aware rewriting of an already parsed OMQ."""
        if self.cache is None:
            return rewrite(self.ontology, omq)
        extendable: list[Extension] = []
        result = self.cache.lookup(self.ontology, omq, key=key,
                                   extendable=extendable)
        if result is None:
            # A rewriting only additive releases made stale is extended
            # by their wrappers' walks; anything else is rewritten cold.
            result = rewrite(self.ontology, omq,
                             extend=extendable[0] if extendable else None)
            self.cache.store(self.ontology, omq, result, key=key)
        return result

    def rewrite(self, query: OMQ | str) -> RewritingResult:
        """OMQ → union of covering & minimal walks (no execution).

        Served from the rewriting cache when a valid entry exists; cached
        results are shared objects and must not be mutated.
        """
        return self._rewrite_parsed(*self._parse(query))

    def _scan_provider(self,
                       scan_cache: ScanCache | None) -> ScanProvider:
        """The physical scan provider one evaluation runs against."""
        scans: ScanProvider = WrapperScanProvider(
            self.ontology.physical_wrapper)
        if scan_cache is not None:
            scans = CachingScanProvider(scans, scan_cache)
        return scans

    def _plan_cached(self, result: RewritingResult,
                     distinct: bool, scans: ScanProvider) -> PhysicalPlan:
        """The physical plan of a rewriting, memoized on the result.

        Rewriting results are cached per canonical OMQ key, so the plan
        (whose construction issues SPARQL feature→attribute lookups)
        rides along: plan once, execute per call. The memo lives and
        dies with the cached rewriting — release-aware invalidation of
        the rewrite cache invalidates the plan too. Estimates only steer
        join order, so a plan built under older estimates can never
        change an answer.
        """
        plans: dict[bool, PhysicalPlan] = \
            result.__dict__.setdefault("_plans", {})
        plan = plans.get(distinct)
        if plan is None:
            plan = plan_ucq(self.ontology, result.ucq, scans, distinct)
            plans[distinct] = plan
        return plan

    def _record_metrics(self, key: str,
                        metrics: PlanMetrics | None) -> None:
        """Keep one execution's metrics in the bounded log behind
        ``explain(analyze=True)`` and :meth:`wrapper_timings`."""
        if metrics is None:
            return
        with self._metrics_lock:
            self._metrics_log.put(key, metrics)

    def _cached_or_pending(self, omq: OMQ, key: str, distinct: bool,
                           scan_cache: ScanCache | None,
                           ) -> "Relation | Callable[[], Relation]":
        """The cached answer of *omq*, or the call that computes it.

        Rewriting and the answer-cache lookup run here, once per query;
        the returned call plans (if it must), executes, extends or
        patches, and stores. :meth:`answer_many` serves the cached
        answers inline and hands only the calls to its worker threads.
        """
        result = self._rewrite_parsed(omq, key)
        if not result.walks:
            raise UnanswerableQueryError(
                "no covering and minimal walk answers the query; "
                "concepts involved: "
                f"{[c.local_name for c in result.concepts]}")
        if not self.use_planner:
            return lambda: result.ucq.execute(self.ontology,
                                              distinct=distinct)
        scans = self._scan_provider(scan_cache)

        def execute() -> Relation:
            return self._execute(
                key, self._plan_cached(result, distinct, scans), scans)

        cache = self.answer_cache
        if cache is None:
            return execute
        fingerprint = self.ontology.fingerprint()
        names = _wrapper_names(result)
        versions = tuple((name, scans.data_version(name))
                         for name in names)
        bound = tuple(scans.bound(name) for name in names)
        action: list[Action] = []
        cached = cache.lookup(key, distinct, fingerprint, versions,
                              bound=bound, rewriting=result,
                              action=action)
        if cached is not None:
            return cached
        (verdict, entry), = action
        if verdict == "uncached":
            return execute

        def compute() -> Relation:
            if verdict == "extend" and entry is not None:
                extended = self._extend_answer(cache, entry, result,
                                               fingerprint, versions,
                                               bound, scans)
                if extended is not None:
                    return extended
            plan = self._plan_cached(result, distinct, scans)
            if verdict == "patch" and entry is not None:
                patched = self._patch_answer(cache, entry, versions,
                                             plan, scans)
                if patched is not None:
                    return patched
            relation = self._execute(key, plan, scans)
            cache.store(key, distinct, fingerprint, versions, relation,
                        bound, rewriting=result)
            return relation

        return compute

    def _extend_answer(self, cache: AnswerCache, entry: CachedAnswer,
                       result: RewritingResult, fingerprint: object,
                       versions: "tuple[tuple[str, object], ...]",
                       bound: tuple[object, ...],
                       scans: ScanProvider) -> Relation | None:
        """The cached answer of *entry*, whose rewriting *result*
        extends, plus the rows of the walks its additive releases added.

        Under LAV such a release leaves every old walk as it was, so
        while the old wrappers still hold the data and the objects the
        cached answer read (:meth:`AnswerCache.lookup` checked), the
        new answer is the old one plus the added walks' rows: their
        union under DISTINCT, their bag sum otherwise. Only the added
        walks are planned (a private plan, through :func:`plan_ucq`)
        and executed. Returns ``None`` when a concurrent reader
        extended *entry* first; the caller then recomputes.
        """
        with entry.lock:
            if not result.extension_of(entry.rewriting):
                # a concurrent reader extended it already
                return None
            added = frozenset(result.added)
            walks = [walk for walk in result.walks
                     if not added.isdisjoint(walk.wrapper_names)]
            relation = entry.relation
            if walks:
                plan = plan_ucq(self.ontology,
                                UCQ(features=list(result.well_formed.pi),
                                    walks=walks),
                                scans, entry.distinct)
                delta = self._execute(entry.key, plan, scans)
                batch = concat_batches(relation.schema, [
                    relation.columnar(), delta.columnar()])
                relation = Relation.from_batch(
                    batch.distinct() if entry.distinct else batch,
                    "result")
            cache.store(entry.key, entry.distinct, fingerprint, versions,
                        relation, bound, rewriting=result, base=entry)
            return relation

    def _execute(self, key: str, plan: PhysicalPlan,
                 scans: ScanProvider) -> Relation:
        # The plan is shared between threads: record the tree of this
        # run, not the plan's last_metrics, which another run may own.
        collector = new_collector()
        relation = plan.execute(scans, collector)
        self._record_metrics(key, collector.root)
        return relation

    def _patch_answer(self, cache: AnswerCache, entry: CachedAnswer,
                      versions: "tuple[tuple[str, object], ...]",
                      plan: PhysicalPlan,
                      scans: ScanProvider) -> Relation | None:
        """Bring the data-stale cached answer *entry* current by O(Δ)
        maintenance.

        Called on an answer-cache miss whose entry survived (same
        fingerprint, advanced data_versions). The entry's standing
        query pulls CDC deltas from the wrappers and patches the
        maintained result; the first stale miss seeds the standing
        state from full scans (through the shared scan cache) so the
        cold path stays byte-identical. Any failure — a seed whose
        wrapper never held still, a failing rescan, an unmaintainable
        operator, corrupted state — discards the entry, counting the
        fallback under the exception's class, and returns None, handing
        control back to the ordinary recompute-and-store path.
        """
        try:
            with entry.lock:
                if entry.data_versions == versions:
                    # a concurrent reader already patched this far
                    return entry.relation
                standing = entry.standing
                if standing is None:
                    standing = StandingQuery(
                        plan, self.ontology.physical_wrapper)
                    outcome = standing.seed(scans)
                    kind = "seed"
                else:
                    outcome = standing.refresh(scans)
                    kind = "fallback" if outcome.reseeded else "patch"
                cache.install_patch(entry, outcome.relation,
                                    outcome.data_versions, standing,
                                    kind, outcome.cause)
                return outcome.relation
        except Exception as exc:
            cache.discard(entry.key, entry.distinct, error=exc)
            return None

    def plan(self, query: OMQ | str,
             distinct: bool = True) -> PhysicalPlan:
        """The physical plan :meth:`answer` would execute for *query*.

        Built through the exact code path execution uses (rewrite →
        :func:`~repro.query.planner.plan_ucq`), so what ``explain()``
        prints is what runs. Raises
        :class:`~repro.errors.UnanswerableQueryError` when no covering
        and minimal walk exists.
        """
        result = self.rewrite(query)
        if not result.walks:
            raise UnanswerableQueryError(
                "no covering and minimal walk answers the query; "
                "concepts involved: "
                f"{[c.local_name for c in result.concepts]}")
        # A throwaway scan cache counts estimate failures (plan time
        # only; nothing is scanned here).
        return self._plan_cached(
            result, distinct, self._scan_provider(ScanCache()))

    def answer(self, query: OMQ | str,
               distinct: bool = True,
               scan_cache: ScanCache | None = None) -> Relation:
        """OMQ → result relation with feature-named columns.

        With the planner on (the default), union branches share one
        scan per ``(wrapper, columns)`` through *scan_cache* —
        a private per-call cache unless the caller passes a longer-lived
        one (the serving layer does; its scans outlive releases, keyed
        by the bound wrapper object and its data version). Raises
        :class:`UnanswerableQueryError` when no covering and minimal
        walk exists for the query.
        """
        if scan_cache is None and self.use_planner:
            scan_cache = ScanCache()
        omq, key = self._parse(query)
        step = self._cached_or_pending(omq, key, distinct, scan_cache)
        return step if isinstance(step, Relation) else step()

    def answer_many(self, queries: Sequence[OMQ | str] | Iterable[OMQ | str],
                    distinct: bool = True,
                    workers: int | None = None,
                    return_exceptions: bool = False,
                    scan_cache: ScanCache | None = None,
                    ) -> list[Relation | Exception]:
        """Answer a batch of OMQs; results align with the input order.

        The batch is deduplicated by :func:`canonical_omq_key`, so
        textual variants of one OMQ (reformatted SPARQL, renamed
        prefixes, reordered triples) are rewritten *and evaluated*
        exactly once, with duplicates sharing the resulting relation
        object (treat results as immutable). Rewriting, planning and
        the answer-cache lookup run on the calling thread, once per
        unique query, and cached answers are served there. With
        ``workers > 1``, evaluation of the remaining queries fans out
        across a :class:`~concurrent.futures.ThreadPoolExecutor` —
        wrappers over I/O-bound sources overlap their fetches; no pool
        starts for fewer than two of them. ``workers=None`` (or ``1``)
        evaluates sequentially on the calling thread.

        Failures: by default the first failing query raises after the
        whole batch settles (so sibling futures are never abandoned
        mid-flight); with ``return_exceptions=True`` the exception
        object takes the failed query's slot instead, in the style of
        ``asyncio.gather``.

        With the planner on, the *whole batch* shares one
        :class:`~repro.relational.physical.ScanCache` (a private one
        unless *scan_cache* is passed): every ``(wrapper, columns)``
        combination is fetched exactly once, single-flighted across the
        worker threads.
        """
        if scan_cache is None and self.use_planner:
            scan_cache = ScanCache()
        parsed = [self._parse(query) for query in queries]
        unique: dict[str, OMQ] = {}
        for omq, key in parsed:
            unique.setdefault(key, omq)

        # Cached answers are served on this thread; only the answers
        # that need computing go to the pool.
        outcomes: dict[str, Relation | Exception] = {}
        pending: dict[str, Callable[[], Relation]] = {}
        for key, omq in unique.items():
            try:
                step = self._cached_or_pending(omq, key, distinct,
                                               scan_cache)
            except Exception as exc:  # propagated post-settle
                outcomes[key] = exc
                continue
            if isinstance(step, Relation):
                outcomes[key] = step
            else:
                pending[key] = step

        if workers is not None and workers > 1 and len(pending) > 1:
            with ThreadPoolExecutor(
                    max_workers=min(workers, len(pending)),
                    thread_name_prefix="repro-answer") as pool:
                futures = {key: pool.submit(compute)
                           for key, compute in pending.items()}
                for key, future in futures.items():
                    try:
                        outcomes[key] = future.result()
                    except Exception as exc:  # propagated post-settle
                        outcomes[key] = exc
        else:
            for key, compute in pending.items():
                try:
                    outcomes[key] = compute()
                except Exception as exc:
                    outcomes[key] = exc

        results: list[Relation | Exception] = []
        for _, key in parsed:
            outcome = outcomes[key]
            if isinstance(outcome, Exception) and not return_exceptions:
                raise outcome
            results.append(outcome)
        return results

    def explain(self, query: OMQ | str, analyze: bool = False) -> str:
        """Textual account of the rewriting phases, the final UCQ and —
        with the planner on — the physical plan that :meth:`answer`
        executes, with pushed-down columns and shared-scan
        annotations. The physical section renders the same
        :class:`~repro.query.planner.PhysicalPlan` construction the
        execution path uses, so the two cannot diverge. With
        ``analyze=True`` the last run's observed per-operator rows and
        wall-times are appended (when the query has executed since the
        plan was built).
        """
        result = self.rewrite(query)
        lines = [result.report(), "", "final UCQ:"]
        if not result.walks:
            lines.append("  ∅ (unanswerable)")
            return "\n".join(lines)
        if not self.use_planner:
            expression = result.ucq.to_expression(self.ontology)
            lines.append(f"  {expression.notation()}")
            return "\n".join(lines)
        # A throwaway scan cache counts estimate failures, as in plan().
        plan = self._plan_cached(result, True,
                                 self._scan_provider(ScanCache()))
        expression = result.ucq.to_expression(self.ontology)
        lines.append(f"  {expression.notation()}")
        lines.append("")
        lines.append(plan.explain(analyze=analyze))
        return "\n".join(lines)

    # -- cache administration -----------------------------------------------

    @property
    def cache_stats(self) -> CacheStats | None:
        """Counters of the rewriting cache (None when caching is off)."""
        return self.cache.stats if self.cache is not None else None

    @property
    def answer_cache_stats(self) -> AnswerCacheStats | None:
        """Counters of the answer cache (None when it is off)."""
        return (self.answer_cache.stats
                if self.answer_cache is not None else None)

    def clear_cache(self) -> int:
        """Drop every cached rewriting; returns how many were dropped."""
        return self.cache.clear() if self.cache is not None else 0

    def clear_answer_cache(self) -> int:
        """Drop every cached answer; returns how many were dropped."""
        return (self.answer_cache.clear()
                if self.answer_cache is not None else 0)

    def parse_memo_size(self) -> int:
        """Number of memoized SPARQL parses (observability aid)."""
        with self._parse_lock:
            return len(self._parse_memo)

    # -- runtime metrics ------------------------------------------------------

    def plan_metrics_log(self) -> "list[tuple[str, PlanMetrics]]":
        """Recent executions' metrics trees, oldest first, keyed by
        canonical OMQ key (LRU-bounded; treat trees as immutable)."""
        with self._metrics_lock:
            return self._metrics_log.items()

    def wrapper_timings(self) -> dict[str, dict[str, float]]:
        """Per-wrapper scan aggregates over the retained metrics trees
        — the describe surface for spotting slow wrappers."""
        merged: dict[str, dict[str, float]] = {}
        for _, metrics in self.plan_metrics_log():
            for wrapper, entry in scan_timings(metrics).items():
                slot = merged.setdefault(wrapper, {
                    "scans": 0, "rows": 0, "seconds": 0.0})
                for counter in ("scans", "rows"):
                    slot[counter] = (int(slot[counter])
                                     + int(entry[counter]))
                slot["seconds"] = round(
                    float(slot["seconds"]) + float(entry["seconds"]),
                    6)
        return merged
