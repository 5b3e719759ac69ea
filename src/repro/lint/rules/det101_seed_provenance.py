"""DET101 — RNG reaching model code without trial-seed provenance.

DET001 sees the *construction* of a bad RNG; it cannot see where the
stream ends up.  The reproduction's actual invariant is stronger than
"constructors take a seed": every RNG that model code
(:data:`~repro.lint.checker.MODEL_PACKAGES`) draws from must derive
*transitively* from a trial seed — ``spawn_trial_seed(run_seed, key)``
or ``derive_rng(seed, *lanes)`` — through any number of helper calls.
A ``default_rng(42)`` in an experiment helper is deterministic, yet
every trial that receives it samples the *same* stream, so trial
results stop being a pure function of ``(config, seed, key)`` and
resume/pool equivalence quietly dies.

Flagged, using the whole-program taint analysis:

* a call site passing an *unblessed* RNG (no arguments → OS entropy,
  or constants-only seeds through every known call chain) into a
  function defined in a model package, however many calls separate the
  constructor from the boundary;
* an unblessed RNG constructed *inside* a model package.

Constructors seeded from a parameter of a function with no resolved
project callers are presumed blessed — public entry points are the
caller's contract, not a finding.

**Fix:** derive the stream where it is used: accept a ``seed`` (or an
already-derived ``numpy.random.Generator``) threaded from
``spawn_trial_seed``, and construct via ``default_rng(seed)`` /
``derive_rng(seed, *lanes)``.  Never suppress this rule.
"""

from __future__ import annotations

from repro.lint.checker import MODEL_PACKAGES, Finding, ProjectChecker
from repro.lint.taint import ProjectAnalysis


def _in_model_package(module: str) -> bool:
    return any(
        module == pkg or module.startswith(pkg + ".")
        for pkg in MODEL_PACKAGES
    )


class SeedProvenanceChecker(ProjectChecker):
    """Flags RNG flows into model packages without seed provenance."""

    rule = "DET101"
    title = "RNG reaching model code lacks trial-seed provenance"

    def check(self, analysis: ProjectAnalysis) -> list[Finding]:
        for qname, fn in sorted(analysis.functions.items()):
            rel = analysis.function_rel.get(qname, "")
            module = analysis.module_of(qname)
            # Unblessed RNG constructed inside model code.
            if _in_model_package(module):
                for site in fn.rng_sites:
                    if not analysis.rng_blessed.get((qname, site.atom), True):
                        why = (
                            "draws OS entropy"
                            if not site.has_args
                            else "is seeded from constants, not a trial seed"
                        )
                        self.report(
                            rel,
                            site.line,
                            site.col,
                            f"`{site.callee}(...)` in model module"
                            f" `{module}` {why}; model RNG streams must"
                            " derive from spawn_trial_seed/derive_rng",
                        )
            # Unblessed RNG crossing into model code at a call boundary.
            for call in fn.calls:
                target = analysis.resolve_callee(qname, call.callee)
                if target is None:
                    continue
                if not _in_model_package(analysis.module_of(target)):
                    continue
                labels = analysis.resolve_atoms(qname, call.all_atoms())
                if "rng-unblessed" in labels:
                    self.report(
                        rel,
                        call.line,
                        call.col,
                        f"passes an RNG with no trial-seed provenance into"
                        f" model function `{target}`; derive it via"
                        " spawn_trial_seed/derive_rng so every trial is a"
                        " pure function of its seed",
                    )
        return self.findings
