"""PAR101 — module-level state written on pool-worker call paths.

The fork-server pool (:mod:`repro.experiments.pool`) keeps worker
processes alive across trials and runs.  Any module-level mutable state
written by code a worker executes therefore accumulates *per process*:
two workers see two divergent copies, a recycled worker sees leftovers
from the previous run, and the serial≡parallel byte-identity the
differential suite proves is broken in a way no single file reveals —
the global lives in one module, the write in another, and the worker
entry point in a third.

This rule is the static twin of the runtime
:class:`~repro.invariants.pool.PoolStateChecker`: it walks the project
call graph from the worker entry points
(:data:`WORKER_ENTRY_POINTS`) and flags every write to module-level
state — ``global`` assignment, in-place container mutation
(``_cache.append(...)``), subscript stores — in any function a worker
can reach.

**Fix:** thread the state through the plan (build it in
``trial_plan()``) or return it through the trial result; per-process
caches that are *provably* rebuilt per (run, fingerprint) may carry an
inline ``# repro-lint: ignore[PAR101]`` with a justifying comment.
"""

from __future__ import annotations

from repro.lint.checker import Finding, ProjectChecker
from repro.lint.taint import ProjectAnalysis

#: Functions that run inside a pool worker process.  Everything
#: reachable from these over the call graph executes in a worker.  A
#: tier-1 test fails when one of them names no function in ``src/``.
WORKER_ENTRY_POINTS: tuple[str, ...] = (
    "repro.experiments.pool._pool_worker_main",
    "repro.experiments.pool._worker_begin_run",
    "repro.experiments.pool._worker_run_trial",
)


class WorkerGlobalChecker(ProjectChecker):
    """Flags module-global writes reachable from worker entry points."""

    rule = "PAR101"
    title = "module-level state written on a pool-worker call path"

    def __init__(
        self, entry_points: tuple[str, ...] = WORKER_ENTRY_POINTS
    ) -> None:
        super().__init__()
        self.entry_points = entry_points

    def check(self, analysis: ProjectAnalysis) -> list[Finding]:
        reached = analysis.reachable_from(self.entry_points)
        for qname in sorted(reached):
            fn = analysis.functions.get(qname)
            if fn is None:
                continue
            rel = analysis.function_rel.get(qname, "")
            entry = reached[qname]
            for write in fn.global_writes:
                self.report(
                    rel,
                    write.line,
                    write.col,
                    f"module-level state `{write.name}` written"
                    f" ({write.kind}) by `{qname}`, reachable from pool"
                    f" worker entry `{entry}`; per-process mutation"
                    " diverges across workers and survives worker reuse —"
                    " thread state through the plan or the result messages"
                    " (static twin of PoolStateChecker)",
                )
        return self.findings
