"""ASY101 — host-blocking calls on the device-time event loop.

The always-on service (:mod:`repro.service`) runs every coroutine on
:class:`~repro.service.loop.DeviceTimeLoop`, a *virtual-time*
cooperative scheduler that steps the coroutines itself: time only
advances when no task is ready to run.  The loop rejects an await of
anything but its own primitives the moment it happens, but a
host-blocking call — ``time.sleep``, synchronous file I/O,
``threading.Event.wait`` — never awaits, so the loop cannot see it: it
freezes the entire loop, stalling all 10⁵ multiplexed sessions at once,
and (worse) it re-couples the schedule to the host clock, breaking the
service's pure-function-of-``(config, seed)`` reproducibility bar.

No per-file rule can catch this: the blocking call typically hides in a
sync helper two hops below the ``async def``.  This rule walks the
project call graph from every ``async def`` in ``repro.service`` and
flags, in any reached service function, a call that blocks the host:

* ``time.sleep`` and friends (exact, awaited or not — there is no
  awaitable form);
* builtin ``open``/``input`` (exact);
* a non-awaited ``.wait`` / ``.read_text`` / ``.write_text`` /
  ``.read_bytes`` / ``.write_bytes`` — the awaited forms are the loop's
  own primitives (``await event.wait()``), the bare forms are
  ``threading``/``pathlib`` blockers.

Findings are scoped to ``repro.service`` modules: beneath the device
lane boundary everything is pure simulation compute (charged to virtual
time, never the host clock), and the sync finalize/checkpoint path runs
outside the loop by design.

**Fix:** park on a loop primitive (``sleep_cycles``, ``VirtualEvent``,
``BoundedQueue``) instead, or move the I/O outside ``loop.run()`` (the
service writes its drain checkpoint in ``_finalize``, after the loop
exits).
"""

from __future__ import annotations

from repro.lint.checker import Finding, ProjectChecker
from repro.lint.taint import ProjectAnalysis

#: Module prefix whose ``async def`` functions are the loop's entry
#: points — and the only modules findings are reported in.
SERVICE_PREFIX = "repro.service"

#: Callees that block the host thread, full dotted match.  There is no
#: awaitable form of any of these, so ``awaited`` is irrelevant.
BLOCKING_EXACT: frozenset[str] = frozenset(
    {
        "time.sleep",
        "open",
        "input",
        "select.select",
        "subprocess.run",
        "subprocess.check_call",
        "subprocess.check_output",
        "os.system",
    }
)

#: Attribute suffixes that block *unless awaited*: the awaited form is
#: an async primitive (``await event.wait()``), the bare form is a
#: ``threading.Event.wait`` / ``pathlib.Path.read_text`` host blocker.
#: ``.join`` is deliberately absent (``str.join`` false positives).
BLOCKING_UNAWAITED_SUFFIXES: tuple[str, ...] = (
    ".wait",
    ".read_text",
    ".write_text",
    ".read_bytes",
    ".write_bytes",
)


def _in_service(module: str) -> bool:
    return module == SERVICE_PREFIX or module.startswith(
        SERVICE_PREFIX + "."
    )


def _blocking_reason(callee: str, awaited: bool) -> str | None:
    """Why this call blocks the host, or ``None`` if it does not."""
    if callee in BLOCKING_EXACT:
        return f"`{callee}` blocks the host thread"
    if not awaited:
        for suffix in BLOCKING_UNAWAITED_SUFFIXES:
            if callee.endswith(suffix):
                return (
                    f"non-awaited `{suffix[1:]}()` is synchronous"
                    " (threading/pathlib), not a loop primitive"
                )
    return None


class BlockingAsyncChecker(ProjectChecker):
    """Flags host-blocking calls reachable from service coroutines."""

    rule = "ASY101"
    title = "host-blocking call on the device-time event loop"

    def check(self, analysis: ProjectAnalysis) -> list[Finding]:
        entries = tuple(
            qname
            for qname, fn in analysis.functions.items()
            if fn.is_async and _in_service(analysis.module_of(qname))
        )
        reached = analysis.reachable_from(entries)
        for qname in sorted(reached):
            fn = analysis.functions.get(qname)
            if fn is None or not _in_service(analysis.module_of(qname)):
                continue
            rel = analysis.function_rel.get(qname, "")
            entry = reached[qname]
            for call in fn.calls:
                reason = _blocking_reason(call.callee, call.awaited)
                if reason is None:
                    continue
                self.report(
                    rel,
                    call.line,
                    call.col,
                    f"{reason}; `{qname}` runs on the device-time loop"
                    f" (reachable from coroutine `{entry}`), so this"
                    " freezes every multiplexed session and re-couples"
                    " the schedule to the host clock — park on a loop"
                    " primitive (sleep_cycles/VirtualEvent/BoundedQueue)"
                    " or move the I/O outside loop.run()",
                )
        return self.findings
