"""EXC001 — bare/broad ``except`` that can swallow integrity failures.

The crash-safety layer communicates through exceptions that *must*
propagate: a :class:`~repro.errors.CheckpointError` from a manifest or
journal that cannot be written, parsed or trusted.  A ``try: ... except
Exception: pass`` between the raise site and the supervisor turns a
detected corruption into a silently wrong figure — the worst failure
mode a reproduction can have.

Flagged:

* bare ``except:`` — always (it also eats ``KeyboardInterrupt``-adjacent
  ``SystemExit``);
* ``except Exception`` / ``except BaseException`` (alone or in a tuple)
  unless the handler re-raises with a bare ``raise``;
* ``contextlib.suppress(Exception)`` / ``suppress(BaseException)``.

Catching :class:`~repro.errors.ReproError` (or a narrower subclass) is
the sanctioned containment boundary and is never flagged.
"""

from __future__ import annotations

import ast

from repro.lint.checker import Checker, FileContext

_BROAD = frozenset({"Exception", "BaseException"})


def _broad_names(type_expr: ast.expr) -> list[str]:
    """Broad exception class names in an ``except`` type expression."""
    exprs = (
        type_expr.elts if isinstance(type_expr, ast.Tuple) else [type_expr]
    )
    names: list[str] = []
    for expr in exprs:
        if isinstance(expr, ast.Name) and expr.id in _BROAD:
            names.append(expr.id)
    return names


def _reraises(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body contains a bare ``raise``."""
    for stmt in handler.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Raise) and node.exc is None:
                return True
    return False


class BroadExceptChecker(Checker):
    """Flags exception handlers wide enough to hide corruption."""

    rule = "EXC001"
    title = "bare/broad except can swallow integrity errors"

    @classmethod
    def interested(cls, ctx: FileContext) -> bool:
        return ctx.in_repro or ctx.module == ""

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(
                node,
                "bare `except:` swallows every failure, including"
                " CheckpointError; catch ReproError (or narrower) instead",
            )
        else:
            broad = _broad_names(node.type)
            if broad and not _reraises(node):
                self.report(
                    node,
                    f"`except {'/'.join(broad)}` without re-raise can"
                    " swallow CheckpointError; catch ReproError (or"
                    " narrower), or re-raise",
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        origin = self.resolve_call(node)
        if origin in ("contextlib.suppress", "suppress"):
            broad = [
                name
                for arg in node.args
                if isinstance(arg, ast.Name) and (name := arg.id) in _BROAD
            ]
            if broad:
                self.report(
                    node,
                    f"`suppress({'/'.join(broad)})` silently discards"
                    " integrity failures; suppress a narrow error type",
                )
        self.generic_visit(node)
