"""SIM002 — monitor-guarded state mutated outside its owning module.

The runtime invariant checkers (:mod:`repro.invariants.checkers`) verify
conservation laws over a handful of model state fields: WQ occupancy
registers, completion records and ticket lifecycle timestamps, DevTLB
slot lists, the TSC counter.  Those laws assume each field mutates in
exactly one module — a stray ``ticket.record = ...`` in an experiment
module would bypass both the slot-release accounting and the
exactly-once completion check while looking locally harmless.

This rule enforces the static half of that contract, mirroring SIM001's
use of :data:`repro.faults.sites.SITE_OWNERS` with the authoritative
ownership map :data:`repro.invariants.fields.FIELD_OWNERS`:

* assignment (plain, augmented, or annotated) to a guarded attribute
  from a module that does not own the field — except the *declaration
  idiom*: ``self.<field> = None`` / ``= {}`` / ``= deque()`` in a class
  declaring an unrelated attribute that merely shares the name (field
  matching is name-based, so an empty fresh value on ``self`` is read
  as a declaration, not a mutation of monitored state);
* a mutating container-method call (``X._entries.popitem()``,
  ``X._entries.clear()`` — the verbs in
  :data:`repro.invariants.fields.MUTATING_METHODS`) on a guarded
  attribute outside its owners;
* an in-place container mutation of a guarded attribute outside its
  owners: subscript assignment (``X.inflight[i] = ...``), ``del``
  (``del X.inflight[:n]``), or a mutating module function with the
  field as its first argument (``bisect.insort(X.inflight, ...)``,
  ``heapq.heappush(X.field, ...)`` — the functions in
  :data:`repro.invariants.fields.MUTATING_FUNCTIONS`);
* assignment to an ``invariant_monitor`` attribute outside
  ``repro.invariants`` — hand-attachment skips the monitor's
  one-monitor-per-device guard (the ``self.invariant_monitor = None``
  declaration idiom is allowed).
"""

from __future__ import annotations

import ast

from repro.invariants.fields import FIELD_OWNERS, MUTATING_FUNCTIONS, MUTATING_METHODS
from repro.lint.checker import Checker, FileContext


def _display_elements(node: ast.expr) -> list[ast.expr]:
    """The element expressions of a dict/list/set/tuple display."""
    if isinstance(node, ast.Dict):
        return [key for key in node.keys if key is not None] + node.values
    if isinstance(node, (ast.List, ast.Set, ast.Tuple)):
        return node.elts
    return []


class GuardedFieldChecker(Checker):
    """Enforces the :data:`~repro.invariants.fields.FIELD_OWNERS` contract."""

    rule = "SIM002"
    title = "monitor-guarded state mutated outside its owning module"

    @classmethod
    def interested(cls, ctx: FileContext) -> bool:
        if ctx.in_package("repro.invariants", "repro.lint"):
            return False
        return ctx.in_repro or ctx.module == ""

    # -- assignments ----------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target, None, augmented=True)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_target(node.target, node.value)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                self._check_in_place(target.value, "deletes from")
        self.generic_visit(node)

    def _check_target(
        self,
        target: ast.expr,
        value: ast.expr | None,
        augmented: bool = False,
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_target(element, value, augmented)
            return
        if isinstance(target, ast.Subscript):
            self._check_in_place(target.value, "assigns an item of")
            return
        if not isinstance(target, ast.Attribute):
            return
        if target.attr == "invariant_monitor":
            if not augmented:
                self._check_monitor_attachment(target, value)
            return
        owners = FIELD_OWNERS.get(target.attr)
        if owners is None:
            return
        if not augmented and self._is_declaration(target, value):
            return
        if self.ctx.module and self.ctx.module not in owners:
            self.report(
                target,
                f"module `{self.ctx.module}` assigns monitor-guarded field"
                f" `{target.attr}`; its owners are {', '.join(owners)}"
                " (see repro.invariants.fields.FIELD_OWNERS) — mutate it"
                " through the owning module's API",
            )

    # -- mutating container-method calls --------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATING_METHODS
            and isinstance(func.value, ast.Attribute)
        ):
            owners = FIELD_OWNERS.get(func.value.attr)
            if (
                owners is not None
                and self.ctx.module
                and self.ctx.module not in owners
            ):
                self.report(
                    node,
                    f"module `{self.ctx.module}` calls"
                    f" `.{func.attr}()` on monitor-guarded field"
                    f" `{func.value.attr}`; its owners are"
                    f" {', '.join(owners)} (see"
                    " repro.invariants.fields.FIELD_OWNERS)",
                )
        elif node.args and self.resolve_call(node) in MUTATING_FUNCTIONS:
            self._check_in_place(
                node.args[0], f"passes to `{self.resolve_call(node)}()`"
            )
        self.generic_visit(node)

    def _check_in_place(self, container: ast.expr, verb: str) -> None:
        """Flag an in-place mutation of ``X.<guarded field>`` by a non-owner."""
        if not isinstance(container, ast.Attribute):
            return
        owners = FIELD_OWNERS.get(container.attr)
        if owners is None or not self.ctx.module or self.ctx.module in owners:
            return
        self.report(
            container,
            f"module `{self.ctx.module}` {verb} monitor-guarded field"
            f" `{container.attr}`; its owners are {', '.join(owners)} (see"
            " repro.invariants.fields.FIELD_OWNERS)",
        )

    # -- idioms ---------------------------------------------------------
    @staticmethod
    def _is_declaration(target: ast.Attribute, value: ast.expr | None) -> bool:
        """``self.<field> = <fresh empty value>`` declares, not mutates."""
        if not (isinstance(target.value, ast.Name) and target.value.id == "self"):
            return False
        if isinstance(value, ast.Constant) and value.value is None:
            return True
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.Tuple)):
            return not _display_elements(value)
        if isinstance(value, ast.Call):
            return not value.args and not value.keywords
        return False

    # -- invariant_monitor attachment -----------------------------------
    def _check_monitor_attachment(
        self, target: ast.Attribute, value: ast.expr | None
    ) -> None:
        if (
            value is not None
            and isinstance(value, ast.Constant)
            and value.value is None
        ):
            return  # the `self.invariant_monitor = None` declaration idiom
        self.report(
            target,
            "direct `invariant_monitor` attachment bypasses the monitor's"
            " one-monitor-per-device guard; use"
            " InvariantMonitor.attach_device/attach_system",
        )
