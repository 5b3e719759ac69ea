"""``repro.lint`` — determinism & simulation-invariant static analysis.

A self-contained whole-program linter for the reproduction's own
invariants — the properties a generic linter cannot know:

* all randomness flows through seeded per-trial generators (**DET001**)
  and, interprocedurally, every RNG reaching model code derives from a
  trial seed through any number of helper calls (**DET101**);
* model code reads only the simulated clock (**DET002**) and no
  clock-derived value flows into manifests, journals, fuzz corpus
  state or trial keys (**DET102**);
* nothing hash-ordered feeds scheduling or trial ordering (**DET003**);
* fault-hookable device state only mutates through registered
  :class:`~repro.faults.plan.FaultSite` hooks (**SIM001**);
* no broad ``except`` can swallow checkpoint integrity errors
  (**EXC001**) and no kernel-backed resource leaks through a helper's
  return value (**EXC101**);
* trial keys derive from the spec, never from execution order
  (**API001**);
* no function reachable from a pool worker entry point writes
  module-level mutable state (**PAR101** — the static twin of the
  runtime ``PoolStateChecker``).

The engine runs in two phases: per-file AST rules plus module-summary
extraction (cached by file SHA-256), then a whole-program taint fixpoint
over the summaries (:mod:`repro.lint.taint`) that powers the
interprocedural rules.  Run it with ``python -m repro.lint`` (see
:mod:`repro.lint.__main__`), or drive
:class:`~repro.lint.engine.LintEngine` directly from tests.  The rule
catalog and suppression policy live in ``docs/static-analysis.md``.
"""

from __future__ import annotations

from repro.lint.checker import Checker, FileContext, Finding, ProjectChecker
from repro.lint.engine import LintEngine, LintReport
from repro.lint.project import ModuleSummary, summarize
from repro.lint.rules import (
    ALL_CHECKERS,
    PROJECT_CHECKERS,
    PROJECT_RULES,
    RULES,
)
from repro.lint.taint import ProjectAnalysis, analyze

__all__ = [
    "ALL_CHECKERS",
    "Checker",
    "FileContext",
    "Finding",
    "LintEngine",
    "LintReport",
    "ModuleSummary",
    "PROJECT_CHECKERS",
    "PROJECT_RULES",
    "ProjectAnalysis",
    "ProjectChecker",
    "RULES",
    "analyze",
    "summarize",
]
