"""EXC101 — kernel-backed resources acquired with no tied release.

A ``multiprocessing.shared_memory`` segment survives the Python object
that wraps it: a leaked segment outlives the process and eats
``/dev/shm`` until a reboot.  Every acquisition must therefore be tied
to a deterministic release where it happens, not in a distant ``close``
someone must remember to call.

The rule checks two kinds of call, anywhere in the project (function
bodies, nested defs and module-level code alike):

* **direct** acquisitions — :data:`repro.lint.project.RESOURCE_ACQUIRERS`
  (``SharedMemory(...)``);
* **indirect** ones — calls of a project function that *returns* such a
  resource, directly or transitively through another helper, as
  computed by the taint engine.  A factory that returns its acquisition
  hands ownership to its caller, and the caller is often in a different
  module, where a per-file rule cannot look.

Either way the value must be tied to a release path at the call:

* used as a ``with`` context expression,
* handed to ``ExitStack.enter_context(...)``,
* assigned to an object attribute (ownership moves to its ``close``),
* returned onward (the caller's caller is then checked the same way),
* ``close()``d in a ``finally`` block or registered with a finalizer
  (``weakref.finalize``, ``atexit.register``, ``stack.callback``).

Passing it to any other call (``use(shm)``) is not a release path, and
neither is a ``finally`` block that only ``unlink()``s it.

**Fix:** the sanctioned idiom is ``stack.enter_context(make_segment(...))``
— consume resources under an ``ExitStack`` or ``with`` block.
"""

from __future__ import annotations

from repro.lint.checker import Finding, ProjectChecker
from repro.lint.project import is_resource_acquirer
from repro.lint.taint import ProjectAnalysis

_FIX = (
    "consume it under `with`/`ExitStack.enter_context(...)`, store it on"
    " an owning object, register a finalizer, or close it in a `finally`"
    " block"
)


class LeakPathChecker(ProjectChecker):
    """Flags resource acquisitions, direct or through helpers, that are
    never tied to a release."""

    rule = "EXC101"
    title = "kernel-backed resource acquired with no tied release"

    def check(self, analysis: ProjectAnalysis) -> list[Finding]:
        for qname, fn in sorted(analysis.functions.items()):
            rel = analysis.function_rel.get(qname, "")
            for call in fn.calls:
                if call.managed:
                    continue
                if is_resource_acquirer(call.callee):
                    message = (
                        f"`{call.callee}(...)` acquires a kernel-backed"
                        " resource that is never tied to a release here"
                        " (shared-memory segments outlive the process"
                        f" when leaked); {_FIX}"
                    )
                else:
                    target = analysis.resolve_callee(qname, call.callee)
                    if target is None or not analysis.returns_resource.get(
                        target, False
                    ):
                        continue
                    message = (
                        f"`{call.callee}(...)` returns a kernel-backed"
                        f" resource (via `{target}`) that is never tied to"
                        f" a release here; {_FIX}"
                    )
                self.report(rel, call.line, call.col, message)
        return self.findings
