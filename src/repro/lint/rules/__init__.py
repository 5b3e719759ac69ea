"""The rule catalog: one module per rule, stable ids.

Two rule families share the catalog:

* **per-file rules** (:class:`~repro.lint.checker.Checker`) — an AST
  visitor over one file; cheap, cacheable, phase 1;
* **project rules** (:class:`~repro.lint.checker.ProjectChecker`) —
  interprocedural rules over the whole-program
  :class:`~repro.lint.taint.ProjectAnalysis`; phase 2.

Adding a rule means adding a module here, registering its checker in
:data:`ALL_CHECKERS` or :data:`PROJECT_CHECKERS`, documenting it in
``docs/static-analysis.md``, and shipping positive/negative fixtures
under ``tests/tools/lint_fixtures/`` (project rules use the multi-file
``proj_*`` fixture directories).
"""

from __future__ import annotations

from repro.lint.checker import Checker, ProjectChecker
from repro.lint.rules.api001_trial_keys import TrialKeyChecker
from repro.lint.rules.asy101_blocking_async import BlockingAsyncChecker
from repro.lint.rules.det001_rng import UnseededRngChecker
from repro.lint.rules.det002_wallclock import WallClockChecker
from repro.lint.rules.det003_ordering import OrderingChecker
from repro.lint.rules.det101_seed_provenance import SeedProvenanceChecker
from repro.lint.rules.det102_clock_taint import ClockTaintChecker
from repro.lint.rules.exc001_broad_except import BroadExceptChecker
from repro.lint.rules.exc101_leak_paths import LeakPathChecker
from repro.lint.rules.fuz001_fuzz_rng import FuzzRngChecker
from repro.lint.rules.par001_worker_closures import WorkerClosureChecker
from repro.lint.rules.par101_worker_globals import WorkerGlobalChecker
from repro.lint.rules.sim001_fault_sites import FaultSiteChecker
from repro.lint.rules.sim002_guarded_fields import GuardedFieldChecker

#: Every registered per-file checker, in rule-id order.
ALL_CHECKERS: tuple[type[Checker], ...] = (
    TrialKeyChecker,
    UnseededRngChecker,
    WallClockChecker,
    OrderingChecker,
    BroadExceptChecker,
    FuzzRngChecker,
    WorkerClosureChecker,
    FaultSiteChecker,
    GuardedFieldChecker,
)

#: Every registered whole-program checker, in rule-id order.
PROJECT_CHECKERS: tuple[type[ProjectChecker], ...] = (
    BlockingAsyncChecker,
    SeedProvenanceChecker,
    ClockTaintChecker,
    LeakPathChecker,
    WorkerGlobalChecker,
)

#: rule id -> checker class (both families; ids are globally unique).
RULES: dict[str, type[Checker] | type[ProjectChecker]] = {
    **{checker.rule: checker for checker in ALL_CHECKERS},
    **{checker.rule: checker for checker in PROJECT_CHECKERS},
}

#: The project-rule ids (the interprocedural family).
PROJECT_RULES: frozenset[str] = frozenset(
    checker.rule for checker in PROJECT_CHECKERS
)

__all__ = [
    "ALL_CHECKERS",
    "PROJECT_CHECKERS",
    "PROJECT_RULES",
    "RULES",
    "BlockingAsyncChecker",
    "BroadExceptChecker",
    "ClockTaintChecker",
    "FaultSiteChecker",
    "FuzzRngChecker",
    "GuardedFieldChecker",
    "LeakPathChecker",
    "OrderingChecker",
    "SeedProvenanceChecker",
    "TrialKeyChecker",
    "UnseededRngChecker",
    "WallClockChecker",
    "WorkerClosureChecker",
    "WorkerGlobalChecker",
]
