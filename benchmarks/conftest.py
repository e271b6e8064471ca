"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and writes
the reproduced artifact to ``benchmarks/results/<name>.txt`` so the
output survives pytest's capture (and can be diffed against the paper).
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Callable

import pytest

import repro.core.ontology as ontology_mod
import repro.core.release as release_mod
import repro.query.intra_concept as intra_mod
from repro.core.ontology import BDIOntology

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def write_result(results_dir):
    def _write(name: str, content: str) -> None:
        path = results_dir / name
        path.write_text(content, encoding="utf-8")
        # Also echo to stdout for `pytest -s` runs.
        print(f"\n===== {name} =====\n{content}")
    return _write


@pytest.fixture(scope="session")
def write_json(results_dir):
    """Persist machine-readable metrics as ``BENCH_<name>.json``.

    CI uploads these files as workflow artifacts, so the perf
    trajectory of each benchmark can be tracked commit over commit.
    """
    def _write(name: str, payload: dict) -> None:
        path = results_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                        + "\n", encoding="utf-8")
        print(f"\n===== {path.name} =====\n{path.read_text()}")
    return _write


class CatalogColdTimer:
    """Times cold queries that really miss the ontology's lookup catalog.

    ``BDIOntology`` answers its metadata lookups from a catalog valid for
    one state of ``T``, so repeating a ``use_cache=False`` query on an
    unchanged ontology would time catalog hits. :meth:`time` first makes
    a content-neutral edit (remove one triple of G, add it back), which
    advances the mutation counter and so drops the catalog, then times
    the call and counts the SPARQL selects it issued.
    """

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        self.selects = 0
        # The lookups call the ``select`` each module imported by name.
        for module in (ontology_mod, release_mod, intra_mod):
            monkeypatch.setattr(module, "select",
                                self._counted(module.select))

    def _counted(self, select: Callable) -> Callable:
        def counted(*args, **kwargs):
            self.selects += 1
            return select(*args, **kwargs)
        return counted

    @staticmethod
    def drop_catalog(ontology: BDIOntology) -> None:
        triple = next(iter(ontology.g))
        ontology.g.remove(triple)
        ontology.g.add(triple)

    def time(self, ontology: BDIOntology,
             call: Callable[[], object]) -> tuple[float, int]:
        """``(seconds, selects)`` of one catalog-cold *call*."""
        self.drop_catalog(ontology)
        return self.time_as_is(call)

    def time_as_is(self, call: Callable[[], object]) -> tuple[float, int]:
        """``(seconds, selects)`` of *call* on the catalog as it stands."""
        before = self.selects
        start = time.perf_counter()
        call()
        return time.perf_counter() - start, self.selects - before


@pytest.fixture()
def catalog_cold(monkeypatch) -> CatalogColdTimer:
    return CatalogColdTimer(monkeypatch)
