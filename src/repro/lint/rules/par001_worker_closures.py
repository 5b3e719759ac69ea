"""PAR001 — trial closures capturing cross-trial mutable state.

The worker pool (:mod:`repro.experiments.pool`) runs a plan's trials in
separate processes, in shard order rather than plan order.  That is only
observation-equivalent to a serial run if every ``TrialSpec.fn`` is
self-contained: a closure that reads a loop variable or a mutated
accumulator from the enclosing ``trial_plan`` scope either sees the
*last* loop value (the classic late-binding bug — every trial runs the
final window) or depends on state other trials mutate, which no longer
exists in a worker process.

Flagged ``fn`` expressions (keyword ``fn=`` or second positional
argument of a ``TrialSpec(...)`` call) are lambdas or locally-defined
functions whose free variables include:

* a loop target of the enclosing function (``for window in ...``),
* a name mutated in the enclosing scope — augmented assignment or an
  in-place container method (``append``, ``update``, ...) / subscript
  store, including mutations made by the closure itself.

The sanctioned idiom rebinds per-iteration values as lambda defaults —
``lambda window=window: run(window)`` — which evaluates them eagerly and
ships them with the (rebuilt) plan; reads of immutable plan parameters
(``seed``, ``settings``) are fine and pass.
"""

from __future__ import annotations

import ast

from repro.lint.checker import Checker, FileContext, dotted_parts

#: Container methods treated as in-place mutation of the receiver.
_MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
    }
)


def _loop_target_names(func: ast.AST) -> set[str]:
    """Every name bound by a ``for``/comprehension target in *func*."""
    names: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            for target in ast.walk(node.target):
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _mutated_names(func: ast.AST) -> set[str]:
    """Names mutated in place anywhere under *func* (closures included)."""
    names: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATING_METHODS
            and isinstance(node.func.value, ast.Name)
        ):
            names.add(node.func.value.id)
        elif isinstance(node, (ast.Assign, ast.Delete)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else node.targets
            )
            for target in targets:
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    names.add(target.value.id)
    return names


def _bound_names(func: ast.Lambda | ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names the closure binds itself: parameters (including the
    default-rebinding idiom), local assignments, comprehension targets."""
    args = func.args
    bound = {
        arg.arg
        for arg in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        )
    }
    body = func.body if isinstance(func.body, list) else [func.body]
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                bound.add(node.id)
            elif isinstance(node, ast.comprehension):
                for target in ast.walk(node.target):
                    if isinstance(target, ast.Name):
                        bound.add(target.id)
    return bound


def _free_names(func: ast.Lambda | ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names the closure reads from an enclosing scope."""
    bound = _bound_names(func)
    free: set[str] = set()
    body = func.body if isinstance(func.body, list) else [func.body]
    for stmt in body:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id not in bound
            ):
                free.add(node.id)
    # Default expressions evaluate in the *enclosing* scope at definition
    # time — that is the sanctioned rebinding idiom, not a capture.
    return free


class WorkerClosureChecker(Checker):
    """Flags ``TrialSpec`` closures unsafe to ship to shard workers."""

    rule = "PAR001"
    title = "trial closure captures cross-trial mutable state"

    @classmethod
    def interested(cls, ctx: FileContext) -> bool:
        return (
            ctx.in_package("repro.experiments")
            or ctx.module == ""
        )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        # No generic_visit: _check_function already walked nested defs.

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _check_function(self, func: ast.AST) -> None:
        suspicious = _loop_target_names(func) | _mutated_names(func)
        if not suspicious:
            return
        local_defs = {
            node.name: node
            for node in ast.walk(func)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node is not func
        }
        for node in ast.walk(func):
            if not (
                isinstance(node, ast.Call)
                and dotted_parts(node.func)[-1:] == ["TrialSpec"]
            ):
                continue
            fn_expr = self._fn_expression(node)
            if fn_expr is None:
                continue
            closure: ast.Lambda | ast.FunctionDef | ast.AsyncFunctionDef | None
            if isinstance(fn_expr, ast.Lambda):
                closure = fn_expr
            elif isinstance(fn_expr, ast.Name) and fn_expr.id in local_defs:
                closure = local_defs[fn_expr.id]
            else:
                # Module-level callables, functools.partial(...) and
                # bound methods evaluate their data eagerly — safe.
                continue
            captured = sorted(_free_names(closure) & suspicious)
            if captured:
                self.report(
                    fn_expr,
                    "trial closure captures mutable/loop state "
                    f"{', '.join(f'`{name}`' for name in captured)} from "
                    "the enclosing scope; rebind per-trial values as "
                    "lambda defaults (`lambda x=x: ...`) so the trial is "
                    "self-contained and shard-safe",
                )

    @staticmethod
    def _fn_expression(node: ast.Call) -> ast.expr | None:
        for keyword in node.keywords:
            if keyword.arg == "fn":
                return keyword.value
        if len(node.args) >= 2:
            return node.args[1]
        return None
