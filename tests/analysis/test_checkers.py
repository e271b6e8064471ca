"""Per-checker behavior over the fixture mini-trees.

``fixtures/flagged`` seeds at least one violation per checker;
``fixtures/clean`` mirrors it with every invariant honored (plus
justified suppressions exercising the policy). The fixtures are real
package trees, so the checkers see them exactly as they see ``src/``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.model import load_project
from repro.analysis.registry import run_checks

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def flagged():
    return run_checks(load_project([FIXTURES / "flagged"]))


@pytest.fixture(scope="module")
def clean():
    return run_checks(load_project([FIXTURES / "clean"]))


def messages(result, check: str) -> list[str]:
    return [f.message for f in result.findings if f.check == check]


class TestFlaggedTree:
    def test_run_is_dirty(self, flagged):
        assert not flagged.ok

    def test_every_checker_fires(self, flagged):
        fired = {f.check for f in flagged.findings}
        assert {"replay-determinism", "guarded-by", "error-taxonomy",
                "frozen-protocol", "wrapper-capabilities",
                "suppression"} <= fired

    # -- replay-determinism ------------------------------------------------

    def test_clock_read_flagged(self, flagged):
        assert any("time.time" in m
                   for m in messages(flagged, "replay-determinism"))

    def test_rng_flagged(self, flagged):
        assert any("random.random" in m
                   for m in messages(flagged, "replay-determinism"))

    def test_set_iteration_flagged(self, flagged):
        assert any("unordered set" in m
                   for m in messages(flagged, "replay-determinism"))

    def test_finding_carries_import_chain(self, flagged):
        assert any("import chain" in m
                   for m in messages(flagged, "replay-determinism"))

    # -- guarded-by --------------------------------------------------------

    def test_unlocked_mutation_flagged(self, flagged):
        assert any("self._entries" in m and "_lock" in m
                   for m in messages(flagged, "guarded-by"))

    def test_locked_access_not_flagged(self, flagged):
        # Journal.lookup touches _entries under the lock — no finding.
        assert not any("lookup" in m
                       for m in messages(flagged, "guarded-by"))

    # -- error-taxonomy ----------------------------------------------------

    def test_orphan_hierarchy_flagged(self, flagged):
        assert any("OrphanError" in m and "derive" in m
                   for m in messages(flagged, "error-taxonomy"))

    def test_unregistered_family_flagged(self, flagged):
        assert any("GhostError" in m
                   for m in messages(flagged, "error-taxonomy"))

    def test_dangling_registration_flagged(self, flagged):
        assert any("VanishedError" in m and "_ERROR_CODES" in m
                   for m in messages(flagged, "error-taxonomy"))

    def test_duplicate_code_flagged(self, flagged):
        assert any("query_error" in m and "unique" in m
                   for m in messages(flagged, "error-taxonomy"))

    def test_unknown_status_code_flagged(self, flagged):
        assert any("mystery_code" in m
                   for m in messages(flagged, "error-taxonomy"))

    def test_invalid_status_value_flagged(self, flagged):
        assert any("9000" in m
                   for m in messages(flagged, "error-taxonomy"))

    def test_dangling_raise_site_flagged(self, flagged):
        assert any("raise site" in m and "VanishedError" in m
                   for m in messages(flagged, "error-taxonomy"))

    def test_stray_exception_class_flagged(self, flagged):
        assert any("StrayError" in m
                   for m in messages(flagged, "error-taxonomy"))

    # -- frozen-protocol ---------------------------------------------------

    def test_unfrozen_envelope_flagged(self, flagged):
        assert any("LeakyEnvelope" in m and "frozen" in m
                   for m in messages(flagged, "frozen-protocol"))

    def test_to_dict_parity_flagged(self, flagged):
        assert any("to_dict" in m and "'b'" in m
                   for m in messages(flagged, "frozen-protocol"))

    def test_from_dict_parity_flagged(self, flagged):
        assert any("from_dict" in m and "'local'" in m
                   for m in messages(flagged, "frozen-protocol"))

    # -- wrapper-capabilities ----------------------------------------------

    def test_missing_projection_param_flagged(self, flagged):
        assert any("columns" in m and "projection" in m
                   for m in messages(flagged, "wrapper-capabilities"))

    def test_zero_argument_fetch_rows_flagged(self, flagged):
        caps = messages(flagged, "wrapper-capabilities")
        assert any(m.startswith("ZeroArgumentWrapper.fetch_rows")
                   and "`columns`" in m for m in caps)

    def test_missing_delta_surface_flagged(self, flagged):
        caps = messages(flagged, "wrapper-capabilities")
        assert any("fetch_deltas" in m for m in caps)
        assert any("delta_cursor" in m for m in caps)

    # -- suppression hygiene -----------------------------------------------

    def test_unjustified_suppression_reported_and_ineffective(self, flagged):
        assert any("justification" in m
                   for m in messages(flagged, "suppression"))
        # the unjustified suppression did NOT silence the finding it
        # sat on: checkpoint()'s time.time() is still reported
        lines = [f.line for f in flagged.findings
                 if f.check == "replay-determinism"
                 and "time.time" in f.message]
        assert len(lines) >= 2

    def test_nothing_suppressed_in_flagged_tree(self, flagged):
        assert flagged.suppressed == 0


class TestCleanTree:
    def test_run_is_clean(self, clean):
        assert clean.ok

    def test_justified_suppressions_counted(self, clean):
        # _tail touches _entries twice under a caller-holds-lock
        # suppression; both raw findings are counted, not reported
        assert clean.suppressed >= 2

    def test_sorted_set_not_flagged(self, clean):
        # order() folds a set through sorted(): deterministic, clean
        assert clean.ok
