"""PAR002 — pool/shared-memory resources acquired without a release path.

The persistent pool (:mod:`repro.experiments.pool`) holds kernel-backed
resources: ``multiprocessing.shared_memory`` segments (the heartbeat
board) survive the Python objects that wrap them — a leaked segment
outlives the process and eats ``/dev/shm`` until a reboot.  Every
acquisition must therefore be tied to a deterministic release at the
point it happens, not in a distant ``close`` someone must remember to
call.

Flagged acquisition calls — :data:`repro.lint.project.RESOURCE_ACQUIRERS`:
``SharedMemory(...)``, ``HeartbeatBoard(...)`` / ``HeartbeatBoard.attach``
— are reported unless, within the same function (or module top level),
the acquisition is:

* the context expression of a ``with`` statement,
* an argument to an ``ExitStack``-style ``enter_context(...)``,
* assigned to an object attribute (``self._shm = ...`` — ownership moves
  to an object whose ``close`` manages it),
* returned by a factory (``shm = SharedMemory(...)`` … ``return shm``),
* or bound to a name that is ``close()``d in a ``finally`` block or
  registered with a finalizer (``weakref.finalize``, ``atexit.register``,
  ``stack.callback``).

The sanctioned idiom is the first two: ``HeartbeatBoard`` is a context
manager precisely so acquisitions read
``stack.enter_context(HeartbeatBoard.attach(...))``.
"""

from __future__ import annotations

import ast

from repro.lint.checker import (
    Checker,
    FileContext,
    iter_child_statements,
)
from repro.lint.project import is_resource_acquirer

#: Callee attribute names that register a deterministic release for an
#: argument: ExitStack.enter_context/callback, atexit.register,
#: weakref.finalize.
_ENTER_METHODS = frozenset({"enter_context"})
_FINALIZER_METHODS = frozenset({"callback", "register", "finalize"})


class PoolResourceChecker(Checker):
    """Flags pool resource acquisitions with no tied release path."""

    rule = "PAR002"
    title = "shared-memory/pool resource acquired without a release path"

    @classmethod
    def interested(cls, ctx: FileContext) -> bool:
        return ctx.in_package("repro.experiments") or ctx.module == ""

    # -- scope walking --------------------------------------------------
    def visit_Module(self, node: ast.Module) -> None:
        self._check_scope(node.body)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_scope(node.body)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    # -- the scope analysis ---------------------------------------------
    def _check_scope(self, body: list[ast.stmt]) -> None:
        """Flag unmanaged acquisitions among *body*'s own statements
        (nested function/class bodies are their own scopes)."""
        acquisitions: list[ast.Call] = []
        safe_calls: set[int] = set()  # id(call) considered managed
        named: dict[str, list[ast.Call]] = {}  # name -> its acquisitions
        safe_names: set[str] = set()

        for node in iter_child_statements(body):
            if isinstance(node, ast.Call):
                origin = self.resolve_call(node)
                if origin is not None and is_resource_acquirer(origin):
                    acquisitions.append(node)
            # with SharedMemory(...) as x: / with HeartbeatBoard(...):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.context_expr, ast.Call):
                        safe_calls.add(id(item.context_expr))
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                # stack.enter_context(Acquire(...)) manages its argument;
                # stack.callback / atexit.register / weakref.finalize
                # manage the *name* they mention.
                if node.func.attr in _ENTER_METHODS:
                    for arg in node.args:
                        safe_calls.add(id(arg))
                elif node.func.attr in _FINALIZER_METHODS:
                    for arg in ast.walk(node):
                        if isinstance(arg, ast.Name):
                            safe_names.add(arg.id)
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                for target in node.targets:
                    if isinstance(target, ast.Attribute):
                        # self._shm = SharedMemory(...): ownership moves
                        # to an object whose close() manages it.
                        safe_calls.add(id(node.value))
                    elif isinstance(target, ast.Name):
                        named.setdefault(target.id, []).append(node.value)
            if isinstance(node, ast.Return) and node.value is not None:
                if isinstance(node.value, ast.Call):
                    # return SharedMemory(...): a factory hands the
                    # caller ownership (the caller's scope is checked).
                    safe_calls.add(id(node.value))
                elif isinstance(node.value, ast.Name):
                    safe_names.add(node.value.id)
            if isinstance(node, ast.Try) and node.finalbody:
                for cleanup in node.finalbody:
                    for sub in ast.walk(cleanup):
                        if (
                            isinstance(sub, ast.Attribute)
                            and sub.attr == "close"
                            and isinstance(sub.value, ast.Name)
                        ):
                            safe_names.add(sub.value.id)

        for call in acquisitions:
            if id(call) in safe_calls:
                continue
            holders = [
                name for name, calls in named.items()
                if any(entry is call for entry in calls)
            ]
            if any(name in safe_names for name in holders):
                continue
            what = ast.unparse(call.func)
            self.report(
                call,
                f"`{what}(...)` acquires a kernel-backed pool resource "
                "with no tied release: use it as a context manager, hand "
                "it to `ExitStack.enter_context(...)`, register a "
                "finalizer, or close it in a `finally` block "
                "(shared-memory segments outlive the process when leaked)",
            )
