"""EXC101 — kernel-backed resources leaked through helper returns.

PAR002 checks acquire/release pairing *within one function* and
deliberately treats ``return SharedMemory(...)`` as safe: a factory
hands ownership to its caller.  That escape hatch is only sound if the
caller actually takes ownership — and the caller is in a different
function, often a different module, where a per-file rule cannot look.

This rule closes the loop interprocedurally: the taint engine computes
which project functions *return a kernel-backed resource* (directly, or
transitively through another helper), and every call site of such a
function is held to PAR002's ownership discipline — the returned value
must be tied to a release path at the point of the call:

* used as a ``with`` context expression,
* handed to ``ExitStack.enter_context(...)``,
* assigned to an object attribute (ownership moves to its ``close``),
* returned onward (the caller's caller is then checked the same way),
* ``close()``d in a ``finally`` block or registered with a finalizer.

Direct acquirer calls (``SharedMemory(...)``, ``HeartbeatBoard.attach(...)``)
stay PAR002's; EXC101 fires only on *indirect* acquisitions through
project helpers, where the leak is invisible to any single file.

**Fix:** the sanctioned idiom is
``stack.enter_context(make_board(...))`` — helpers that return resources
should be consumed under an ``ExitStack`` or ``with`` block.
"""

from __future__ import annotations

from repro.lint.checker import Finding, ProjectChecker
from repro.lint.project import is_resource_acquirer
from repro.lint.taint import ProjectAnalysis


class LeakPathChecker(ProjectChecker):
    """Flags unmanaged calls to helpers that return pool resources."""

    rule = "EXC101"
    title = "resource-returning helper called with no tied release"

    def check(self, analysis: ProjectAnalysis) -> list[Finding]:
        for qname, fn in sorted(analysis.functions.items()):
            rel = analysis.function_rel.get(qname, "")
            for call in fn.calls:
                if call.managed:
                    continue
                if is_resource_acquirer(call.callee):
                    continue  # direct acquisitions are PAR002's findings
                target = analysis.resolve_callee(qname, call.callee)
                if target is None or not analysis.returns_resource.get(
                    target, False
                ):
                    continue
                self.report(
                    rel,
                    call.line,
                    call.col,
                    f"`{call.callee}(...)` returns a kernel-backed pool"
                    f" resource (via `{target}`) that is never tied to a"
                    " release here; consume it under `with`/"
                    "`ExitStack.enter_context(...)`, store it on an owning"
                    " object, or close it in a `finally` block",
                )
        return self.findings
