"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.datasets import build_supersede
from repro.query import QueryEngine


@pytest.fixture()
def scenario():
    """A fresh SUPERSEDE scenario (paper sample data, no evolution)."""
    return build_supersede()


@pytest.fixture()
def evolved_scenario():
    """SUPERSEDE after the §2.1 evolution (w4 registered)."""
    return build_supersede(with_evolution=True)


@pytest.fixture()
def ontology(scenario):
    return scenario.ontology


@pytest.fixture()
def engine(scenario):
    return QueryEngine(scenario.ontology)


@pytest.fixture()
def evolved_engine(evolved_scenario):
    return QueryEngine(evolved_scenario.ontology)


@pytest.fixture()
def fleet_harness(tmp_path):
    """Boot leader + N replica + router fleets on ephemeral ports.

    Yields a factory: ``fleet = fleet_harness(replicas=2)`` seeds a
    governed state directory (override with ``seed=callable``), boots
    the fleet, and waits for every replica to converge. Teardown is
    guaranteed — every child process is reaped even when the test
    fails or chaos-kills replicas mid-run — and the fixture fails the
    test if any child survives close (no orphan gateways may leak
    between tests).
    """
    from repro.fleet import Fleet
    from repro.fleet.__main__ import seed_demo_state

    fleets = []

    def _boot(replicas=2, *, seed=seed_demo_state, converge=True,
              **kwargs):
        state_dir = tmp_path / f"fleet-{len(fleets)}"
        if seed is not None:
            seed(state_dir)
        fleet = Fleet(state_dir, replicas=replicas, **kwargs)
        fleets.append(fleet)
        fleet.start()
        if converge:
            fleet.wait_converged(timeout=60)
        return fleet

    yield _boot

    leaked = []
    for fleet in fleets:
        procs = fleet.supervisor.processes()
        fleet.close()
        leaked += [p for p in procs if p.popen.poll() is None]
    assert not leaked, f"fleet children leaked past teardown: {leaked}"


@pytest.fixture()
def star():
    """Factory of a hub-and-satellites star where every satellite
    carries the hub's ID.

    ``star(satellites, satellite_rows=None)`` returns
    ``(ontology, query, wrappers)``: *query* walks the hub and every
    satellite, so the rewriting emits one walk per way of joining the
    satellites' ID copies (2 walks for 2 satellites, 6 for 3). Default
    satellite rows repeat ``(hid, m)`` pairs, so set semantics has
    duplicates to drop; *satellite_rows* overrides them per satellite
    (a list of ``{"hid", "m"}`` row lists).
    """
    from repro.core.ontology import BDIOntology
    from repro.core.release import new_release
    from repro.evolution.release_builder import build_release
    from repro.rdf.namespace import Namespace
    from repro.wrappers.base import StaticWrapper

    ns = Namespace("urn:star:")
    hub_ids = [f"h{i}" for i in range(4)]

    def register(ontology, source, name, non_ids, hints, rows):
        wrapper = StaticWrapper(name, source, ["hid"], non_ids, rows)
        release = build_release(
            ontology, source, name, id_attributes=["hid"],
            non_id_attributes=non_ids, feature_hints=hints)
        release.wrapper = wrapper
        new_release(ontology, release)
        return wrapper

    def build(satellites=2, satellite_rows=None):
        ontology = BDIOntology()
        g = ontology.globals
        hub = g.add_concept(ns.Hub)
        g.add_feature(hub, ns.hid, is_id=True)
        g.add_feature(hub, ns.hubMetric)
        wrappers = {"wHub": register(
            ontology, "SH", "wHub", ["hubMetric"],
            {"hid": ns.hid, "hubMetric": ns.hubMetric},
            [{"hid": h, "hubMetric": f"lag-{i % 2}"}
             for i, h in enumerate(hub_ids)])}
        patterns = [f"<{ns.Hub}> G:hasFeature <{ns.hubMetric}> ."]
        features = [f"<{ns.hubMetric}>"]
        for s in range(satellites):
            sat = g.add_concept(ns[f"Sat{s}"])
            metric = g.add_feature(sat, ns[f"m{s}"])
            g.add_property(hub, ns[f"links{s}"], sat)
            rows = (satellite_rows[s] if satellite_rows is not None
                    else [{"hid": h, "m": f"q{(i + r + s) % 2}"}
                          for i, h in enumerate(hub_ids)
                          for r in range(3)])
            wrappers[f"wSat{s}"] = register(
                ontology, f"SS{s}", f"wSat{s}", ["m"],
                {"hid": ns.hid, "m": metric}, rows)
            patterns += [f"<{ns.Hub}> <{ns[f'links{s}']}> <{sat}> .",
                         f"<{sat}> G:hasFeature <{metric}> ."]
            features.append(f"<{metric}>")
        variables = " ".join(f"?v{i}" for i in range(len(features)))
        query = (f"SELECT {variables} WHERE {{\n"
                 f"    VALUES ({variables}) {{ ({' '.join(features)}) }}\n"
                 + "\n".join(f"    {p}" for p in patterns).rstrip(" .")
                 + "\n}")
        return ontology, query, wrappers

    return build
