"""The three closed-loop workloads, driven through the production path.

Every request goes ``GovernedClient`` → ``HttpTransport`` → in-process
``HttpGateway`` → ``ProtocolEndpoint`` → ``GovernedService`` →
``QueryEngine``, with the default configuration (no environment kill
switch, no engine knob). Inputs are generated from the seed before any
timer starts; the program only ever sees the generated rows and queries.

* ``evolution`` — a durable service (fsync'd journal) models the
  Wordpress ``Post`` concept; the steward submits the 15 Wordpress
  releases, and after each one an analyst poses a fixed panel of
  historical queries. Every query misses the rewrite cache on a growing
  ontology over tiny data: metadata work dominates.
* ``analytic`` — a hub/satellite star registered at set-up; the analyst
  poses every 2-satellite walk exactly once. No answer can come from a
  cache and the ontology is small: execution and encoding dominate.
* ``dashboard`` — a smaller star; two analysts poll a fixed panel in
  rounds while ~1% of every source's rows change in place between
  rounds. Everything fits the caches: answer-cache hits, incremental
  patches and per-request overhead dominate.
"""

from __future__ import annotations

import itertools
import random
import shutil
import threading
import time
import uuid
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from benchkit.layers import instrument
from benchkit.oracle import (
    AnswerMismatch, check_answer, check_contains, reference_engine,
)
from benchkit.spans import SpanRecorder
from benchkit.speed import Speedometer

#: cache capacity of the answer and rewrite caches (both default to 256)
CACHE_ENTRIES = 256

#: set-ups per worker process; set-up time is reported as their median
SETUPS = 15


def check_stream(seed: int, process: int) -> random.Random:
    """The random stream that picks which answers a worker checks:
    independent of the input stream, and different per worker process
    of a run, so the processes check different samples."""
    return random.Random(f"{seed}/checks/{process}")


# ---------------------------------------------------------------------------
# Accounting
# ---------------------------------------------------------------------------


#: a timed operation: (perf-counter start, wall seconds)
Timed = tuple[float, float]


@dataclass
class Tally:
    """One client's operations: start and wall time of the completed
    ones, and failures by protocol error code."""

    queries: list[Timed] = field(default_factory=list)
    releases: list[Timed] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    codes: Counter = field(default_factory=Counter)

    def run(self, kind: str, operation: Callable[[], Any]) -> Any:
        """Time one client call; a failure is tallied and yields None."""
        from repro.api import error_code_of

        self.attempted += 1
        started = time.perf_counter()
        try:
            result = operation()
        except Exception as exc:  # every failure is counted, by code
            self.failed += 1
            self.codes[error_code_of(exc)] += 1
            return None
        elapsed = time.perf_counter() - started
        (self.queries if kind == "query" else self.releases).append(
            (started, elapsed))
        return result

    def merge(self, other: "Tally") -> None:
        self.queries += other.queries
        self.releases += other.releases
        self.attempted += other.attempted
        self.failed += other.failed
        self.codes.update(other.codes)


@dataclass
class Run:
    """What one workload run observed. Times are wall time; the
    :class:`~benchkit.speed.Speedometer` converts them to reference
    time."""

    tally: Tally = field(default_factory=Tally)
    setups: list[Timed] = field(default_factory=list)
    #: the timed measured segments
    segments: list[Timed] = field(default_factory=list)
    speed: Speedometer = field(default_factory=Speedometer)
    #: answers compared with the reference evaluator
    checked: int = 0
    mismatches: list[str] = field(default_factory=list)
    facts: dict[str, Any] = field(default_factory=dict)
    recorder: SpanRecorder | None = None
    #: traced passes only: the deployment's counters at the end
    counters: dict[str, Any] = field(default_factory=dict)
    #: journal bytes each release appended
    release_bytes: list[int] = field(default_factory=list)
    #: the traced pass that followed this one in the same process
    traced: Run | None = None

    @property
    def measured_s(self) -> float:
        """Wall time of the timed segments so far."""
        return sum(seconds for _, seconds in self.segments)

    def reference_ms(self, timed: Sequence[Timed]) -> list[float]:
        return [self.speed.reference(*t) * 1e3 for t in timed]

    @contextmanager
    def measuring(self, timed: bool = True) -> Iterator[None]:
        """A measured segment, after a speed probe: traced runs record
        spans only inside one, and *timed* segments add to the
        measured time."""
        self.speed.probe()
        inst = instrument(self.recorder) if self.recorder else None
        started = time.perf_counter()
        try:
            yield
        finally:
            if timed:
                self.segments.append(
                    (started, time.perf_counter() - started))
            if inst is not None:
                inst.undo()

    def check(self, what: str, assertion: Callable[[], None]) -> None:
        try:
            assertion()
        except AnswerMismatch as exc:
            self.mismatches.append(f"{what}: {exc}")
        self.checked += 1


# ---------------------------------------------------------------------------
# Deployment: service + gateway over one MDM
# ---------------------------------------------------------------------------


class Deployment:
    """A governed service booted behind an in-process HTTP gateway."""

    def __init__(self, mdm: Any, state_dir: Path | None = None) -> None:
        from repro.api import HttpGateway

        self.mdm = mdm
        self.state_dir = state_dir
        self.service = mdm.serving()
        self.gateway = HttpGateway(self.service)
        self.gateway.start()

    def client(self) -> Any:
        from repro.api import GovernedClient

        return GovernedClient(self.gateway.url)

    def counters(self) -> dict[str, Any]:
        """End-of-run counters the traced run reports."""
        scans = self.service.scan_cache.stats
        return {"shed": self.gateway.shed_requests,
                "triples_end": self.mdm.ontology.triple_counts()["total"],
                "scan_hits": scans.hits,
                "scan_lookups": scans.hits + scans.misses}

    def close(self) -> None:
        self.gateway.stop()
        self.service.close()
        self.mdm.close()
        if self.state_dir is not None:
            shutil.rmtree(self.state_dir, ignore_errors=True)


def _timed_setup(run: Run, setup: Callable[[], Deployment]) -> Deployment:
    run.speed.probe()
    started = time.perf_counter()
    deployment = setup()
    run.setups.append((started, time.perf_counter() - started))
    return deployment


def _sparql(concept_features: Sequence[tuple[Any, Sequence[Any]]],
            edges: Sequence[tuple[Any, Any, Any]],
            projected: Sequence[Any]) -> str:
    """An OMQ in the Code 3 template: VALUES binds the projection."""
    variables = " ".join(f"?v{i}" for i in range(len(projected)))
    values = " ".join(f"<{f}>" for f in projected)
    triples = [f"<{c}> G:hasFeature <{f}>"
               for c, features in concept_features for f in features]
    triples += [f"<{s}> <{p}> <{o}>" for s, p, o in edges]
    body = " .\n    ".join(triples)
    return (f"SELECT {variables} WHERE {{\n"
            f"    VALUES ({variables}) {{ ({values}) }}\n"
            f"    {body}\n}}")


# ---------------------------------------------------------------------------
# evolution: the Wordpress release history under a query panel
# ---------------------------------------------------------------------------

#: Wordpress attributes aligned to one canonical Post feature across
#: renames (the steward's alignment, as in the paper's §6.4 study)
WP_ALIASES = {"ID": "id", "featured_image": "featured_media",
              "meta_fields": "meta", "post_meta": "meta",
              "content_raw": "content"}

#: the analyst panel posed after every release: historical
#: single-feature queries (``meta`` and ``featured_media`` were renamed
#: across releases) and multi-feature projections. Every feature is
#: served from release 1 on, so no query is ever unanswerable.
WP_PANEL = (
    ("title",), ("meta",), ("featured_media",), ("status",),
    ("id", "title"), ("title", "author", "date"),
    ("slug", "modified", "meta"),
    ("id", "featured_media", "excerpt", "sticky"),
)

#: inline rows each release carries
WP_ROWS_PER_RELEASE = 30


def _wp_feature(attribute: str) -> str:
    return WP_ALIASES.get(attribute, attribute)


class Evolution:
    name = "evolution"

    def __init__(self, seed: int, workdir: Path, process: int) -> None:
        from repro.evolution.growth import WP
        from repro.evolution.wordpress import (
            WORDPRESS_RELEASES, all_wordpress_fields,
        )

        self.workdir = workdir
        self.wp = WP
        self.features = sorted({_wp_feature(f)
                                for f in all_wordpress_fields()})
        rng = random.Random(seed)
        self.releases = []
        for spec in WORDPRESS_RELEASES:
            id_attr = "ID" if "ID" in spec.fields else "id"
            rows = [{name: (f"post-{spec.version}-{j}" if name == id_attr
                            else f"{name}-{spec.version}-{j}-"
                                 f"{rng.getrandbits(32):08x}")
                     for name in spec.fields}
                    for j in range(WP_ROWS_PER_RELEASE)]
            self.releases.append({
                "source": "wordpress_posts",
                "wrapper": f"wp_v{spec.version.replace('.', '_')}",
                "id_attributes": [id_attr],
                "non_id_attributes": [f for f in spec.fields
                                      if f != id_attr],
                "feature_hints": {f: str(WP[f"post/{_wp_feature(f)}"])
                                  for f in spec.fields},
                "rows": rows,
            })
        self.panel = [_sparql([(WP.Post, [WP[f"post/{f}"] for f in q])],
                              [], [WP[f"post/{f}"] for f in q])
                      for q in WP_PANEL]
        # after each release one seeded query is compared with the
        # reference, single-feature after even releases and
        # multi-feature after odd ones, so both shapes are covered
        checks = check_stream(seed, process)
        self.sample = [4 * (index % 2) + checks.randrange(4)
                       for index in range(len(self.releases))]

    def setup(self) -> Deployment:
        from repro.mdm import MDM

        state_dir = self.workdir / f"state-{uuid.uuid4().hex[:12]}"
        mdm = MDM.open(state_dir)
        post = mdm.add_concept(self.wp.Post)
        mdm.add_feature(post, self.wp["post/id"], is_id=True)
        for name in self.features:
            if name != "id":
                mdm.add_feature(post, self.wp[f"post/{name}"])
        return Deployment(mdm, state_dir)

    def history(self, index: int, features: Sequence[str]) -> list[tuple]:
        """Projected rows of every release up to *index*: the
        historical answer must contain all of them."""
        rows = []
        for release in self.releases[:index + 1]:
            attribute = {_wp_feature(a): a for a in
                         release["id_attributes"]
                         + release["non_id_attributes"]}
            rows += [tuple(row[attribute[f]] for f in features)
                     for row in release["rows"]]
        return rows

    def measure(self, run: Run, deployment: Deployment, tally: Tally,
                 seconds: float) -> None:
        from repro.mdm.system import JOURNAL_FILE

        journal = deployment.state_dir / JOURNAL_FILE
        client = deployment.client()
        try:
            for index, release in enumerate(self.releases):
                size = journal.stat().st_size
                with run.measuring():
                    tally.run("release", lambda: client.submit_release(
                        absorbed_concepts=[str(self.wp.Post)]
                        if index == 0 else (),
                        request_id=f"r{index}", **release))
                run.release_bytes.append(journal.stat().st_size - size)
                answers = []
                for k, query in enumerate(self.panel):
                    with run.measuring():
                        answers.append(tally.run(
                            "query", lambda: client.query(
                                query, request_id=f"q{index}-{k}")))
                oracle = reference_engine(deployment.mdm.ontology)
                for k, response in enumerate(answers):
                    if response is None:
                        continue
                    what = f"release {index} query {WP_PANEL[k]}"
                    run.check(what, lambda: check_contains(
                        response.columns, response.rows,
                        self.history(index, WP_PANEL[k]),
                        "the releases serving these features"))
                    if k == self.sample[index]:
                        run.check(what, lambda: check_answer(
                            oracle, self.panel[k], response))
        finally:
            client.close()

    def facts(self, deployment: Deployment) -> dict[str, Any]:
        return {
            "releases": len(self.releases),
            "rows_per_source": WP_ROWS_PER_RELEASE,
            "distinct_queries": len(self.panel),
            "queries_per_release": len(self.panel),
            "triples_end": deployment.mdm.ontology.triple_counts()["total"],
            "working_set": f"{len(self.panel)} queries per fingerprint vs "
                           f"{CACHE_ENTRIES}-entry caches; every release "
                           f"invalidates them",
        }


# ---------------------------------------------------------------------------
# The hub/satellite star shared by analytic and dashboard
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StarShape:
    hubs: int
    satellites: int
    #: satellite rows per hub id
    fanout: int
    hub_metrics: int
    sat_metrics: int


class Star:
    """Generated star data plus its registration and walk queries.

    String IDs and string metrics, shaped like ``bench_columnar``'s
    generator; every satellite joins the hub on the hub's ID. Satellite
    rows carry a raw ``rid`` the wrapper does not expose, so single rows
    can be changed in place.
    """

    def __init__(self, shape: StarShape, rng: random.Random) -> None:
        from repro.rdf.namespace import Namespace

        self.shape = shape
        self.ns = Namespace("urn:perfbench:star:")
        self.hub_rows = [
            {"hid": f"app-{i:05d}",
             "hubMetric": f"lag-{rng.randrange(shape.hub_metrics):02d}"}
            for i in range(shape.hubs)]
        self.sat_rows = [
            [{"rid": r, "hid": f"app-{r // shape.fanout:05d}",
              "m": f"qos-{rng.randrange(shape.sat_metrics)}"}
             for r in range(shape.hubs * shape.fanout)]
            for _ in range(shape.satellites)]

    def setup(self) -> Deployment:
        from repro.evolution.release_builder import build_release
        from repro.mdm import MDM
        from repro.wrappers.base import StaticWrapper

        ns = self.ns
        mdm = MDM()

        def register(source: str, wrapper: str, non_id: str,
                     feature: Any, rows: list[dict],
                     absorbed: set[Any]) -> None:
            release = build_release(
                mdm.ontology, source, wrapper, id_attributes=["hid"],
                non_id_attributes=[non_id],
                feature_hints={"hid": ns.hid, non_id: feature})
            release.wrapper = StaticWrapper(wrapper, source, ["hid"],
                                            [non_id], rows)
            mdm.register_release(release,
                                 absorbed_concepts=frozenset(absorbed))

        hub = mdm.add_concept(ns.Hub)
        mdm.add_feature(hub, ns.hid, is_id=True)
        mdm.add_feature(hub, ns.hubMetric)
        register("SH", "wHub", "hubMetric", ns.hubMetric, self.hub_rows,
                 {hub})
        for i, rows in enumerate(self.sat_rows):
            sat = mdm.add_concept(ns[f"Sat{i}"])
            mdm.add_feature(sat, ns[f"m{i}"])
            mdm.add_property(hub, ns[f"links{i}"], sat)
            register(f"SS{i}", f"wSat{i}", "m", ns[f"m{i}"], rows,
                     {hub, sat})
        return Deployment(mdm)

    def walk(self, satellites: Sequence[int]) -> str:
        """Hub metric joined with the metrics of *satellites*."""
        ns = self.ns
        projected = [ns.hubMetric] + [ns[f"m{i}"] for i in satellites]
        return _sparql(
            [(ns.Hub, [ns.hubMetric])]
            + [(ns[f"Sat{i}"], [ns[f"m{i}"]]) for i in satellites],
            [(ns.Hub, ns[f"links{i}"], ns[f"Sat{i}"]) for i in satellites],
            projected)

    def rows_per_source(self) -> dict[str, int]:
        return {"hub": self.shape.hubs,
                "satellite": self.shape.hubs * self.shape.fanout}


# ---------------------------------------------------------------------------
# analytic: every distinct walk of one shape, exactly once
# ---------------------------------------------------------------------------

#: 2000 hubs at fan-out 4, as in ``bench_columnar``. Walks join the hub
#: with two satellites: a 3-satellite walk costs ~0.5 s on a 2-core
#: machine, so its 120 walks would not fit one run, while 15 satellites
#: give C(15, 2) = 105 walks, enough for a p90 with 10 samples beyond.
ANALYTIC_SHAPE = StarShape(hubs=2000, satellites=15, fanout=4,
                           hub_metrics=100, sat_metrics=4)
#: satellites per walk: every one of the C(15, 2) walks of this shape
ANALYTIC_WALK = 2
#: walks per worker process compared with the reference evaluator
ANALYTIC_CHECKED = 3


class Analytic:
    name = "analytic"

    def __init__(self, seed: int, workdir: Path, process: int) -> None:
        rng = random.Random(seed)
        self.star = Star(ANALYTIC_SHAPE, rng)
        walks = list(itertools.combinations(
            range(ANALYTIC_SHAPE.satellites), ANALYTIC_WALK))
        rng.shuffle(walks)
        self.queries = [self.star.walk(w) for w in walks]
        self.sample = set(check_stream(seed, process).sample(
            range(len(walks)), ANALYTIC_CHECKED))

    def setup(self) -> Deployment:
        return self.star.setup()

    def measure(self, run: Run, deployment: Deployment, tally: Tally,
                 seconds: float) -> None:
        client = deployment.client()
        kept = {}
        try:
            for k, query in enumerate(self.queries):
                with run.measuring():
                    response = tally.run("query", lambda: client.query(
                        query, request_id=f"q{k}"))
                if k in self.sample and response is not None:
                    kept[k] = response
        finally:
            client.close()
        oracle = reference_engine(deployment.mdm.ontology)
        for k, response in kept.items():
            run.check(f"walk {k}", lambda: check_answer(
                oracle, self.queries[k], response))

    def facts(self, deployment: Deployment) -> dict[str, Any]:
        return {
            "releases": 1 + ANALYTIC_SHAPE.satellites,
            "rows_per_source": self.star.rows_per_source(),
            "distinct_queries": len(self.queries),
            "triples_end": deployment.mdm.ontology.triple_counts()["total"],
            "working_set": f"{len(self.queries)} distinct walks, each "
                           f"posed once: no answer-cache reuse",
        }


# ---------------------------------------------------------------------------
# dashboard: two analysts poll a panel while source rows change
# ---------------------------------------------------------------------------

DASHBOARD_SHAPE = StarShape(hubs=500, satellites=6, fanout=4,
                            hub_metrics=10, sat_metrics=4)
#: the fixed panel: multi-way walks over the star
DASHBOARD_PANEL = ((0, 1), (2, 3), (4, 5), (0, 3), (1, 4), (2, 5),
                   (0, 2, 4), (1, 3, 5))
#: closed-loop clients polling the panel
DASHBOARD_CLIENTS = 2
#: panel polls per client per round. After a round's mutation the first
#: poll of each walk patches the cached answer and the rest hit it, so
#: 2 clients x 2 polls make one patch per four queries: the median sits
#: among hits and p90 among patches, neither on the boundary.
DASHBOARD_POLLS = 2
#: share of every source's rows changed in place between rounds
DASHBOARD_CHURN = 0.01
#: share of timed rounds whose answers are compared with the reference
#: (both warm-up rounds and the first timed round always are). A checked
#: round compares every answer of one seeded walk of each shape: the
#: reference needs ~0.2 s for a 2-satellite walk and ~1.2 s for a
#: 3-satellite one.
DASHBOARD_CHECK_SHARE = 0.03


class Dashboard:
    name = "dashboard"

    def __init__(self, seed: int, workdir: Path, process: int) -> None:
        self.rng = random.Random(seed)
        self.star = Star(DASHBOARD_SHAPE, self.rng)
        self.panel = [self.star.walk(w) for w in DASHBOARD_PANEL]
        self.checks = check_stream(seed, process)

    def setup(self) -> Deployment:
        return self.star.setup()

    def _mutate(self, deployment: Deployment) -> None:
        """Change ~1% of every source's rows in place."""
        rng = self.rng
        ontology = deployment.mdm.ontology
        shape = DASHBOARD_SHAPE
        hubs = max(1, round(shape.hubs * DASHBOARD_CHURN))
        chosen = {f"app-{i:05d}" for i in rng.sample(range(shape.hubs),
                                                     hubs)}
        value = f"lag-{rng.randrange(shape.hub_metrics):02d}"
        ontology.physical_wrapper("wHub").update_rows(
            lambda row: row["hid"] in chosen, {"hubMetric": value})
        total = shape.hubs * shape.fanout
        for i in range(shape.satellites):
            rids = set(rng.sample(range(total),
                                  max(1, round(total * DASHBOARD_CHURN))))
            value = f"qos-{rng.randrange(shape.sat_metrics)}"
            ontology.physical_wrapper(f"wSat{i}").update_rows(
                lambda row: row["rid"] in rids, {"m": value})

    def measure(self, run: Run, deployment: Deployment, tally: Tally,
                 seconds: float) -> None:
        clients = [deployment.client() for _ in range(DASHBOARD_CLIENTS)]
        tallies = [Tally() for _ in clients]
        answers: list[list[tuple[int, Any]]] = [[] for _ in clients]
        start = threading.Barrier(DASHBOARD_CLIENTS + 1)
        done = threading.Barrier(DASHBOARD_CLIENTS + 1)
        counter = itertools.count()
        width = len(self.panel)

        def poll(c: int) -> None:
            # the second client starts half-way through the panel, so
            # the two rarely ask for the same stale walk at once
            order = [(c * width // 2 + k) % width for k in range(width)]
            try:
                while True:
                    start.wait()
                    answers[c].clear()
                    for k in order * DASHBOARD_POLLS:
                        response = tallies[c].run(
                            "query", lambda: clients[c].query(
                                self.panel[k],
                                request_id=f"q{next(counter)}"))
                        answers[c].append((k, response))
                    done.wait()
            except threading.BrokenBarrierError:
                return  # the coordinator stopped the run

        def round_trip() -> None:
            start.wait()
            done.wait()

        threads = [threading.Thread(target=poll, args=(c,),
                                    name=f"perfbench-client-{c}")
                   for c in range(DASHBOARD_CLIENTS)]
        for thread in threads:
            thread.start()
        try:
            # Two warm-up rounds are traced but not timed: round 0 fills
            # every cache with full executions, and the first patch of
            # each walk in round 1 seeds its standing query. Only the
            # steady state of hits and O(delta) patches is timed.
            for warm_up in range(2):
                with run.measuring(timed=False):
                    round_trip()
                self._check_round(run, deployment, answers, warm_up)
                self._mutate(deployment)
            tallies[:] = [Tally() for _ in clients]
            rounds = 0
            while rounds == 0 or run.measured_s < seconds:
                rounds += 1
                with run.measuring():
                    round_trip()
                # answers are checked against the data they were served
                # from, so a sampled round is checked before it mutates.
                # The first timed round is the first to refresh cached
                # answers from deltas, so it is always checked.
                if (rounds == 1
                        or self.checks.random() < DASHBOARD_CHECK_SHARE):
                    self._check_round(run, deployment, answers, rounds + 1)
                with run.measuring():
                    self._mutate(deployment)
        finally:
            start.abort()
            done.abort()
            for thread in threads:
                thread.join()
            for client in clients:
                client.close()
        for t in tallies:
            tally.merge(t)
        run.facts["rounds_measured"] = rounds

    def _check_round(self, run: Run, deployment: Deployment,
                     answers: list[list[tuple[int, Any]]],
                     round_no: int) -> None:
        oracle = reference_engine(deployment.mdm.ontology)
        shapes: dict[int, list[int]] = {}
        for k, walk in enumerate(DASHBOARD_PANEL):
            shapes.setdefault(len(walk), []).append(k)
        expected = {k: oracle.answer(self.panel[k]) for k in
                    (self.checks.choice(ks) for ks in shapes.values())}
        for c, served in enumerate(answers):
            for k, response in served:
                if k in expected and response is not None:
                    run.check(
                        f"round {round_no} client {c} walk {k}",
                        lambda: check_answer(oracle, self.panel[k],
                                             response, expected[k]))

    def facts(self, deployment: Deployment) -> dict[str, Any]:
        return {
            "releases": 1 + DASHBOARD_SHAPE.satellites,
            "rows_per_source": self.star.rows_per_source(),
            "distinct_queries": len(self.panel),
            "triples_end": deployment.mdm.ontology.triple_counts()["total"],
            "working_set": f"{len(self.panel)} walks vs "
                           f"{CACHE_ENTRIES}-entry caches: all fit",
        }


WORKLOADS = {w.name: w for w in (Evolution, Analytic, Dashboard)}


def _measure(workload: Any, run: Run, deployment: Deployment,
             seconds: float) -> None:
    """Measure one pass on *deployment*, then close it."""
    try:
        workload.measure(run, deployment, run.tally, seconds)
        run.facts.update(workload.facts(deployment))
        if run.recorder is not None:
            run.counters = deployment.counters()
    finally:
        deployment.close()


def execute(name: str, seed: int, seconds: float, workdir: Path,
            traced: bool, process: int = 0) -> Run:
    """Generate the inputs, set up, measure, check: one worker process's
    run of a workload.

    Set-up is repeated :data:`SETUPS` times (the extra deployments are
    closed unused) so its median is steady; the last one is measured.
    ``evolution`` and ``analytic`` are fixed work; ``dashboard`` polls
    for *seconds*. When *traced*, a second, traced pass follows on a
    deployment of its own (``Run.traced``), so the tracer's overhead
    compares two passes of one process rather than two processes.
    """
    workload = WORKLOADS[name](seed, workdir, process)
    run = Run()
    for _ in range(SETUPS - 1):
        _timed_setup(run, workload.setup).close()
    _measure(workload, run, _timed_setup(run, workload.setup), seconds)
    if traced:
        run.traced = Run(recorder=SpanRecorder())
        _measure(workload, run.traced, workload.setup(), seconds)
    return run
