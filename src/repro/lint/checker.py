"""Checker base class, findings, and shared AST utilities.

A checker is an :class:`ast.NodeVisitor` bound to one parsed file
(:class:`FileContext`) that emits :class:`Finding` records.  Rules live
in :mod:`repro.lint.rules`; this module provides what they share:

* **Finding** — one stable, sortable diagnostic (rule id, path, line,
  column, message).
* **ImportResolver** — maps local names back to the dotted origin they
  were imported from, so ``from time import perf_counter as pc; pc()``
  resolves to ``time.perf_counter`` and ``np.random.rand()`` to
  ``numpy.random.rand`` regardless of aliasing.
* **Scope classification** — which ``repro`` package a file belongs to
  (model packages obey stricter determinism rules than the orchestration
  layer).

Everything here is pure standard-library Python: the linter must run in
a bare environment and must never import the code it analyses.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar

#: Sub-packages of ``repro`` whose code models simulated hardware and
#: therefore may only observe the *simulated* clock and seeded RNGs.
MODEL_PACKAGES: tuple[str, ...] = (
    "repro.dsa",
    "repro.ats",
    "repro.hw",
    "repro.virt",
    "repro.core",
    "repro.covert",
    "repro.workloads",
)

#: Orchestration modules allowed to read the host wall clock.  Kept to a
#: single module on purpose: every timestamp in the system routes through
#: :func:`repro.experiments.runner.wall_clock` (injectable in tests).
WALL_CLOCK_ALLOWLIST: tuple[str, ...] = ("repro.experiments.runner",)

#: Directive that lets a fixture file declare the module it pretends to
#: be (fixtures live outside ``src/`` so their path encodes nothing).
FIXTURE_MODULE_DIRECTIVE = "# repro-lint-fixture-module:"


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: stable rule id + location + message."""

    path: str  # posix path, relative to the lint root
    line: int  # 1-based
    col: int  # 1-based (display convention)
    rule: str
    message: str

    def format_text(self) -> str:
        """``path:line:col: RULE message`` (clickable in most tooling)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_json(self) -> dict[str, Any]:
        """JSON-object form (the ``--format json`` wire format)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class FileContext:
    """One parsed source file, as seen by every checker."""

    path: Path  # absolute
    rel: str  # posix, relative to the lint root
    module: str  # dotted module ("" when not under a repro package)
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    _resolver: "ImportResolver | None" = field(
        default=None, repr=False, compare=False
    )

    @property
    def resolver(self) -> "ImportResolver":
        """The file's import resolver, built once and shared by every
        checker and by the summary extractor (the per-file slice of the
        project symbol table)."""
        if self._resolver is None:
            self._resolver = ImportResolver(self.tree)
        return self._resolver

    @classmethod
    def parse(cls, path: Path, rel: str, module: str) -> "FileContext":
        """Read and parse *path* (raises ``SyntaxError`` on bad source)."""
        return cls.from_source(
            path.read_text(encoding="utf-8"), path, rel, module
        )

    @classmethod
    def from_source(
        cls, source: str, path: Path, rel: str, module: str
    ) -> "FileContext":
        """Parse already-read *source* (raises ``SyntaxError``)."""
        tree = ast.parse(source, filename=str(path))
        ctx = cls(
            path=path,
            rel=rel,
            module=module,
            source=source,
            tree=tree,
            lines=source.splitlines(),
        )
        override = ctx._fixture_module_override()
        if override is not None:
            ctx.module = override
        return ctx

    def _fixture_module_override(self) -> str | None:
        for line in self.lines[:10]:
            stripped = line.strip()
            if stripped.startswith(FIXTURE_MODULE_DIRECTIVE):
                return stripped[len(FIXTURE_MODULE_DIRECTIVE):].strip()
        return None

    # -- scope helpers -------------------------------------------------
    def in_package(self, *packages: str) -> bool:
        """Whether this file's module lives under any of *packages*."""
        for package in packages:
            if self.module == package or self.module.startswith(package + "."):
                return True
        return False

    @property
    def in_model_package(self) -> bool:
        """Whether this file is simulated-hardware model code."""
        return self.in_package(*MODEL_PACKAGES)

    @property
    def in_repro(self) -> bool:
        """Whether this file belongs to the ``repro`` distribution."""
        return self.module == "repro" or self.module.startswith("repro.")


class ImportResolver(ast.NodeVisitor):
    """Tracks ``import``/``from ... import`` bindings in one module.

    :meth:`resolve` maps a ``Name``/``Attribute`` chain to the dotted
    path it refers to, substituting the local alias for its origin.
    Names never imported resolve to their own dotted spelling, so
    callers can still match explicit chains like ``self.rng.normal``.
    """

    def __init__(self, tree: ast.AST) -> None:
        self.aliases: dict[str, str] = {}
        self.visit(tree)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            origin = alias.name if alias.asname else alias.name.split(".")[0]
            self.aliases[local] = origin

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:  # relative imports stay local
            return
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.aliases[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.expr) -> str | None:
        """Dotted origin of *node*, or ``None`` for non-name expressions."""
        parts = dotted_parts(node)
        if not parts:
            return None
        head, *rest = parts
        origin = self.aliases.get(head, head)
        return ".".join([origin, *rest]) if rest else origin


def dotted_parts(node: ast.expr) -> list[str]:
    """``a.b.c`` as ``["a", "b", "c"]`` (empty for anything else)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


class Checker(ast.NodeVisitor):
    """Base class for one lint rule over one file.

    Subclasses set :attr:`rule` (stable id) and :attr:`title`, implement
    ``visit_*`` methods, and call :meth:`report`.  :meth:`interested`
    lets a rule opt out of files outside its scope without walking them.
    """

    rule: ClassVar[str] = ""
    title: ClassVar[str] = ""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.imports = ctx.resolver
        self.findings: list[Finding] = []

    @classmethod
    def interested(cls, ctx: FileContext) -> bool:
        """Whether this rule applies to *ctx* at all (default: yes)."""
        return True

    def report(self, node: ast.AST, message: str) -> None:
        """Record one finding anchored at *node*."""
        self.findings.append(
            Finding(
                path=self.ctx.rel,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule=self.rule,
                message=message,
            )
        )

    def run(self) -> list[Finding]:
        """Walk the file and return this rule's findings."""
        self.visit(self.ctx.tree)
        return self.findings

    def resolve_call(self, node: ast.Call) -> str | None:
        """Dotted origin of a call's callee (aliasing-aware)."""
        return self.imports.resolve(node.func)


class ProjectChecker:
    """Base class for one interprocedural rule over the whole program.

    Where :class:`Checker` sees one file's AST, a project checker sees
    the phase-2 :class:`~repro.lint.taint.ProjectAnalysis` — the symbol
    table, call graph, and resolved taint built from every module
    summary.  Subclasses set :attr:`rule`/:attr:`title` and implement
    :meth:`check`; findings anchor to the summary-recorded site
    locations, so no AST is needed at report time (which is what lets
    cached modules participate without re-parsing).
    """

    rule: ClassVar[str] = ""
    title: ClassVar[str] = ""

    def __init__(self) -> None:
        self.findings: list[Finding] = []

    def report(
        self, rel: str, line: int, col: int, message: str
    ) -> None:
        """Record one finding at an explicit location."""
        self.findings.append(
            Finding(path=rel, line=line, col=col, rule=self.rule,
                    message=message)
        )

    def check(self, analysis: Any) -> list[Finding]:
        """Run the rule over *analysis* and return its findings."""
        raise NotImplementedError
