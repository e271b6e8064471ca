"""repro.analysis — the repo's invariant-enforcing static-analysis suite.

Stdlib-only (``ast`` + ``tokenize``). Five checkers encode invariants
established across the project's history and gate CI:

* ``replay-determinism`` — no clocks/RNG/env/``id()``/unordered-set
  iteration in modules import-reachable from the journal executor and
  the streaming operators (PR 5's byte-identical replay, PR 8's
  patch-equals-recompute);
* ``guarded-by`` — attributes annotated ``# guarded-by: <lock>`` are
  only touched inside ``with self.<lock>:`` in their class (PR 2/6/7
  concurrency discipline);
* ``error-taxonomy`` — every ``repro.errors`` class maps to a stable
  wire code and HTTP status; no stray exception classes (PR 4);
* ``frozen-protocol`` — v1 envelopes stay frozen with
  field/``to_dict``/``from_dict`` parity (PR 4);
* ``wrapper-capabilities`` — every ``fetch_rows`` takes the pushed-down
  ``columns``, and a wrapper serving deltas has the matching CDC
  methods.

Run ``python -m repro.analysis [paths]``; see
:mod:`repro.analysis.model` for the suppression policy (justifications
are mandatory).
"""

from repro.analysis.model import (
    Finding, Project, SourceFile, Suppression, SUPPRESSION_CHECK,
    load_project, parse_source,
)
from repro.analysis.registry import (
    Checker, RunResult, all_checkers, register, run_checks,
)

__all__ = [
    "Checker",
    "Finding",
    "Project",
    "RunResult",
    "SourceFile",
    "Suppression",
    "SUPPRESSION_CHECK",
    "all_checkers",
    "load_project",
    "parse_source",
    "register",
    "run_checks",
]
