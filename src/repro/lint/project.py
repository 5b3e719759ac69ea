"""Per-module summaries: the unit of whole-program analysis.

The interprocedural rules (DET101/DET102/PAR101/EXC101) cannot run on
one file at a time — an unseeded RNG constructed in a helper module may
only become a bug two calls later, when it crosses into ``repro.dsa``.
But re-walking every AST on every lint run would make the whole-program
pass unaffordable.  The compromise is classic summary-based analysis:

* **Phase 1** (this module) walks each file *once* and distills a
  :class:`ModuleSummary` — the defined functions (nested defs as
  ``outer.inner``, module-level code as ``<module>``), their call sites
  with argument *taint atoms*, RNG construction sites, module-global
  writes, and resource acquisitions.  Summaries are plain JSON and are
  cached by source SHA-256 (:mod:`repro.lint.cache`), so a warm re-lint only
  re-extracts the modules that actually changed.
* **Phase 2** (:mod:`repro.lint.taint`) stitches the summaries into a
  project call graph and runs a fixpoint over the taint lattice; it
  never touches an AST.

Atoms
-----
A local expression's dataflow facts are a set of opaque strings:

``L:<label>``
    a concrete lattice label (``clock``, ``seed``, ``env``,
    ``resource``, ``rng-blessed`` — see :mod:`repro.lint.taint`)
    introduced by a source call in the expression;
``P:<param>``
    the value may carry whatever taint the enclosing function's
    *param* receives from its callers;
``R:<dotted>``
    the value may carry whatever the (project) function *dotted*
    returns;
``RNG:<line>:<col>``
    the value is the RNG constructed at that site of the enclosing
    function — whether that RNG is *blessed* (seed-derived) is decided
    by the whole-program pass from the resolved taint of the
    constructor's arguments.

``P:``/``R:``/``RNG:`` atoms are function-scoped symbols: phase 2
resolves them to concrete labels before taint ever crosses a function
boundary, so summaries stay small and composable.

The per-function analysis is flow-insensitive (statements are iterated
twice, reaching a local fixpoint for the common ``x = source();
y = helper(x); return y`` chains), which over-approximates rarely and
keeps extraction to a single cheap walk per function.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.lint.checker import FileContext, ImportResolver

#: Bumped whenever the summary format or extraction logic changes, so a
#: stale cache is discarded instead of silently misread.
SUMMARY_VERSION = 3

#: Callables whose return value *is* a fresh RNG stream.  Which lattice
#: label the stream gets (blessed vs unblessed) depends on the resolved
#: taint of the seed arguments — decided in phase 2.
RNG_CONSTRUCTOR_SUFFIXES: tuple[str, ...] = (
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.Philox",
    "random.Random",
)

#: Callables whose return value is seed-derived by construction: the
#: sanctioned derivation helpers.  ``derive_rng`` returns a *blessed*
#: RNG; ``spawn_trial_seed`` returns a blessed seed integer.
SEED_SOURCE_SUFFIXES: tuple[str, ...] = (
    "spawn_trial_seed",
    "derive_rng",
    "derive_case_rng",
    "derive_seed",
)

#: Calls that observe the host clock — directly or via the sanctioned
#: injectable helpers.  The *taint* is the same either way; DET002 and
#: DET102 differ only in which uses they object to.
CLOCK_SOURCES = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)
CLOCK_SOURCE_SUFFIXES: tuple[str, ...] = ("wall_clock", "monotonic_clock")

#: Dotted-origin suffixes that acquire a kernel-backed resource: EXC101
#: checks each call within its function and follows the value through
#: helper returns.
RESOURCE_ACQUIRERS: tuple[str, ...] = (
    "multiprocessing.shared_memory.SharedMemory",
)

#: In-place container mutators (PAR001 and PAR101 both use this set).
MUTATING_METHODS = frozenset(
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

#: Callee attribute names that tie an acquired value to a release.
_FINALIZER_METHODS = frozenset({"callback", "register", "finalize"})

#: Builtins/helpers whose return value carries the taint of their
#: arguments (identity-ish wrappers).
_TRANSPARENT_CALLS = frozenset(
    {
        "sorted",
        "list",
        "tuple",
        "dict",
        "set",
        "min",
        "max",
        "sum",
        "abs",
        "round",
        "int",
        "float",
        "str",
        "repr",
        "format",
    }
)


def sha256_text(text: str) -> str:
    """Content hash used as the summary-cache key."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _suffix_match(origin: str, suffixes: Iterable[str]) -> bool:
    return any(
        origin == suffix or origin.endswith("." + suffix)
        for suffix in suffixes
    )


def is_rng_constructor(origin: str) -> bool:
    """Whether *origin* constructs a fresh RNG stream."""
    return _suffix_match(origin, RNG_CONSTRUCTOR_SUFFIXES)


def is_seed_source(origin: str) -> bool:
    """Whether *origin* is a sanctioned seed-derivation helper."""
    return _suffix_match(origin, SEED_SOURCE_SUFFIXES)


def is_clock_source(origin: str) -> bool:
    """Whether *origin* reads the host clock (raw or injectable)."""
    return origin in CLOCK_SOURCES or _suffix_match(
        origin, CLOCK_SOURCE_SUFFIXES
    )


def is_resource_acquirer(origin: str) -> bool:
    """Whether *origin* acquires a kernel-backed pool resource."""
    return _suffix_match(origin, RESOURCE_ACQUIRERS)


# ----------------------------------------------------------------------
# Summary records (all JSON-serializable)
# ----------------------------------------------------------------------
@dataclass
class CallSite:
    """One call expression inside a function body."""

    callee: str  # dotted, module-qualified where resolvable
    line: int
    col: int
    args: list[list[str]] = field(default_factory=list)  # atoms per position
    keywords: dict[str, list[str]] = field(default_factory=dict)
    managed: bool = False  # value tied to a release/ownership path
    awaited: bool = False  # call expression directly under an ``await``
    line_text: str = ""

    def to_json(self) -> dict[str, Any]:
        return {
            "callee": self.callee,
            "line": self.line,
            "col": self.col,
            "args": [sorted(a) for a in self.args],
            "keywords": {
                k: sorted(v) for k, v in sorted(self.keywords.items())
            },
            "managed": self.managed,
            "awaited": self.awaited,
            "line_text": self.line_text,
        }

    @classmethod
    def from_json(cls, raw: dict[str, Any]) -> "CallSite":
        return cls(
            callee=raw["callee"],
            line=raw["line"],
            col=raw["col"],
            args=[list(a) for a in raw["args"]],
            keywords={k: list(v) for k, v in raw["keywords"].items()},
            managed=raw["managed"],
            awaited=raw["awaited"],
            line_text=raw["line_text"],
        )

    def all_atoms(self) -> set[str]:
        """Union of atoms across every argument."""
        atoms: set[str] = set()
        for arg in self.args:
            atoms.update(arg)
        for kw_atoms in self.keywords.values():
            atoms.update(kw_atoms)
        return atoms


@dataclass
class RngSite:
    """One RNG-constructor call; blessedness is decided in phase 2."""

    callee: str
    line: int
    col: int
    arg_atoms: list[str] = field(default_factory=list)  # union of all args
    has_args: bool = False
    line_text: str = ""

    @property
    def atom(self) -> str:
        return f"RNG:{self.line}:{self.col}"

    def to_json(self) -> dict[str, Any]:
        return {
            "callee": self.callee,
            "line": self.line,
            "col": self.col,
            "arg_atoms": sorted(self.arg_atoms),
            "has_args": self.has_args,
            "line_text": self.line_text,
        }

    @classmethod
    def from_json(cls, raw: dict[str, Any]) -> "RngSite":
        return cls(
            callee=raw["callee"],
            line=raw["line"],
            col=raw["col"],
            arg_atoms=list(raw["arg_atoms"]),
            has_args=raw["has_args"],
            line_text=raw["line_text"],
        )


@dataclass
class GlobalWrite:
    """One write to module-level state from inside a function."""

    name: str
    kind: str  # "global-assign" | "global-augassign" | "method:<m>" | "subscript"
    line: int
    col: int
    line_text: str = ""

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "line": self.line,
            "col": self.col,
            "line_text": self.line_text,
        }

    @classmethod
    def from_json(cls, raw: dict[str, Any]) -> "GlobalWrite":
        return cls(**raw)


@dataclass
class FunctionSummary:
    """Everything phase 2 needs to know about one function."""

    qname: str  # module-qualified, e.g. repro.dsa.portal.submit
    line: int
    params: list[str] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    rng_sites: list[RngSite] = field(default_factory=list)
    returns: list[str] = field(default_factory=list)  # atoms
    acquires_resource: bool = False
    is_async: bool = False
    global_writes: list[GlobalWrite] = field(default_factory=list)
    #: qnames of the defs nested directly in this body: they can run
    #: only when this function does (callbacks included).
    nested: list[str] = field(default_factory=list)

    def rng_site(self, atom: str) -> RngSite | None:
        """The :class:`RngSite` an ``RNG:line:col`` atom refers to."""
        for site in self.rng_sites:
            if site.atom == atom:
                return site
        return None

    def to_json(self) -> dict[str, Any]:
        return {
            "qname": self.qname,
            "line": self.line,
            "params": list(self.params),
            "calls": [c.to_json() for c in self.calls],
            "rng_sites": [r.to_json() for r in self.rng_sites],
            "returns": sorted(self.returns),
            "acquires_resource": self.acquires_resource,
            "is_async": self.is_async,
            "global_writes": [w.to_json() for w in self.global_writes],
            "nested": list(self.nested),
        }

    @classmethod
    def from_json(cls, raw: dict[str, Any]) -> "FunctionSummary":
        return cls(
            qname=raw["qname"],
            line=raw["line"],
            params=list(raw["params"]),
            calls=[CallSite.from_json(c) for c in raw["calls"]],
            rng_sites=[RngSite.from_json(r) for r in raw["rng_sites"]],
            returns=list(raw["returns"]),
            acquires_resource=raw["acquires_resource"],
            is_async=raw["is_async"],
            global_writes=[
                GlobalWrite.from_json(w) for w in raw["global_writes"]
            ],
            nested=list(raw["nested"]),
        )


@dataclass
class ModuleSummary:
    """Phase-1 distillation of one source file."""

    module: str  # dotted ("" for files outside a repro package)
    rel: str  # posix path relative to the lint root
    sha256: str
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    module_globals: list[str] = field(default_factory=list)  # mutable ones
    classes: list[str] = field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        return {
            "version": SUMMARY_VERSION,
            "module": self.module,
            "rel": self.rel,
            "sha256": self.sha256,
            "imports": dict(sorted(self.imports.items())),
            "functions": {
                q: f.to_json() for q, f in sorted(self.functions.items())
            },
            "module_globals": sorted(self.module_globals),
            "classes": sorted(self.classes),
        }

    @classmethod
    def from_json(cls, raw: dict[str, Any]) -> "ModuleSummary":
        return cls(
            module=raw["module"],
            rel=raw["rel"],
            sha256=raw["sha256"],
            imports=dict(raw["imports"]),
            functions={
                q: FunctionSummary.from_json(f)
                for q, f in raw["functions"].items()
            },
            module_globals=list(raw["module_globals"]),
            classes=list(raw["classes"]),
        )

    def line_texts(self) -> dict[int, str]:
        """``{line: source text}`` for every summary-recorded site —
        enough to apply inline suppressions to project-rule findings
        without re-reading the file."""
        texts: dict[int, str] = {}
        for fn in self.functions.values():
            for call in fn.calls:
                texts[call.line] = call.line_text
            for site in fn.rng_sites:
                texts[site.line] = site.line_text
            for write in fn.global_writes:
                texts[write.line] = write.line_text
        return texts


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------
_MUTABLE_FACTORIES = frozenset(
    {
        "list",
        "dict",
        "set",
        "collections.defaultdict",
        "collections.deque",
        "collections.OrderedDict",
        "collections.Counter",
    }
)


def _is_mutable_initializer(node: ast.expr, resolver: ImportResolver) -> bool:
    if isinstance(
        node,
        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
    ):
        return True
    if isinstance(node, ast.Call):
        origin = resolver.resolve(node.func)
        return origin in _MUTABLE_FACTORIES
    return False


def _iter_scope(body: Iterable[ast.stmt]) -> Iterable[ast.AST]:
    """Walk *body* without descending into nested defs/classes (their
    bodies are separate scopes; nested defs are summarized on their
    own, class bodies nested in a function are not)."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


class _FunctionExtractor:
    """Flow-insensitive atom analysis of one function body (or of a
    module's top-level statements, as a parameterless pseudo-function).

    *enclosing* maps the names of defs visible from enclosing function
    scopes to their qnames, and *shadowed* holds the names those scopes
    bind, which hide module globals of the same name.
    """

    def __init__(
        self,
        summarizer: "ModuleSummarizer",
        func: ast.FunctionDef | ast.AsyncFunctionDef | ast.Module,
        qname: str,
        class_qname: "str | None" = None,
        enclosing: "dict[str, str] | None" = None,
        shadowed: frozenset[str] = frozenset(),
    ) -> None:
        self.s = summarizer
        self.func = func
        self.class_qname = class_qname
        self.line = getattr(func, "lineno", 1)
        params: list[str] = []
        if not isinstance(func, ast.Module):
            args = func.args
            params = [
                a.arg
                for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
                if a.arg not in ("self", "cls")
            ]
        self.summary = FunctionSummary(
            qname=qname,
            line=self.line,
            params=params,
            is_async=isinstance(func, ast.AsyncFunctionDef),
        )
        self.env: dict[str, set[str]] = {p: {f"P:{p}"} for p in params}
        # Python scoping, computed up front: a plain assignment only
        # writes a module global under a ``global`` declaration, while
        # in-place mutation (append/subscript-store) reaches the module
        # object whenever the name is not locally bound.
        self.global_decls: set[str] = set()
        self.local_bound: set[str] = set(self.env)
        for node in _iter_scope(func.body):
            if isinstance(node, ast.Global):
                self.global_decls.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                self.local_bound.add(node.id)
            elif isinstance(node, ast.comprehension):
                for target in ast.walk(node.target):
                    if isinstance(target, ast.Name):
                        self.local_bound.add(target.id)
        self.local_bound -= self.global_decls
        self.shadowed = shadowed
        # Module-level defs are the summarizer's; nested ones are ours.
        self.nested_defs: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
        if not isinstance(func, ast.Module):
            self.nested_defs = [
                node
                for node in _iter_scope(func.body)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
        self.local_funcs = {
            **(enclosing or {}),
            **{node.name: f"{qname}.{node.name}" for node in self.nested_defs},
        }
        self.summary.nested = sorted(
            {f"{qname}.{node.name}" for node in self.nested_defs}
        )
        self._managed_ids: set[int] = set()
        self._named_calls: dict[str, list[int]] = {}
        self._safe_names: set[str] = set()
        self._collect_managed(func.body)
        # Call expressions sitting directly under an ``await`` — the
        # ASY101 blocking-call rule needs to tell ``await q.get()``
        # apart from a bare (blocking) ``sock.recv()``.
        self._awaited_ids: set[int] = {
            id(node.value)
            for node in _iter_scope(func.body)
            if isinstance(node, ast.Await)
            and isinstance(node.value, ast.Call)
        }

    # -- managed-call analysis (EXC101's escape set) --------------------
    def _collect_managed(self, body: list[ast.stmt]) -> None:
        """Mark call expressions whose value is tied to an ownership or
        release path: ``with``-context, ``enter_context`` argument,
        attribute assignment, ``return``, ``finally``-close, finalizer
        registration.  Passing the value to any other call does not
        count: ``use(shm)`` may well not keep it."""
        for node in _iter_scope(body):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.context_expr, ast.Call):
                        self._managed_ids.add(id(item.context_expr))
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr == "enter_context":
                    for arg in node.args:
                        if isinstance(arg, ast.Call):
                            self._managed_ids.add(id(arg))
                elif node.func.attr in _FINALIZER_METHODS:
                    for sub in ast.walk(node):
                        if isinstance(sub, ast.Name):
                            self._safe_names.add(sub.id)
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                for target in node.targets:
                    if isinstance(target, ast.Attribute):
                        self._managed_ids.add(id(node.value))
                    elif isinstance(target, ast.Name):
                        self._named_calls.setdefault(target.id, []).append(
                            id(node.value)
                        )
            if isinstance(node, ast.Return) and node.value is not None:
                if isinstance(node.value, ast.Call):
                    self._managed_ids.add(id(node.value))
                elif isinstance(node.value, ast.Name):
                    self._safe_names.add(node.value.id)
            if isinstance(node, ast.Try) and node.finalbody:
                for cleanup in node.finalbody:
                    for sub in ast.walk(cleanup):
                        if (
                            isinstance(sub, ast.Attribute)
                            and sub.attr == "close"
                            and isinstance(sub.value, ast.Name)
                        ):
                            self._safe_names.add(sub.value.id)

    def _call_is_managed(self, call: ast.Call) -> bool:
        if id(call) in self._managed_ids:
            return True
        for name in self._safe_names:
            if any(
                id(call) == entry for entry in self._named_calls.get(name, ())
            ):
                return True
        return False

    # -- driving --------------------------------------------------------
    def run(self) -> FunctionSummary:
        # Two passes reach a local fixpoint for the common forward
        # chains; atoms accumulate monotonically, duplicates dedup below.
        for _ in range(2):
            for stmt in self.func.body:
                self._visit_stmt(stmt)
        self._dedup()
        return self.summary

    def _dedup(self) -> None:
        calls: dict[tuple[str, int, int], CallSite] = {}
        for call in self.summary.calls:
            calls[(call.callee, call.line, call.col)] = call
        self.summary.calls = [calls[k] for k in sorted(calls)]
        rngs: dict[tuple[int, int], RngSite] = {}
        for site in self.summary.rng_sites:
            rngs[(site.line, site.col)] = site
        self.summary.rng_sites = [rngs[k] for k in sorted(rngs)]
        writes: dict[tuple[str, str, int, int], GlobalWrite] = {}
        for write in self.summary.global_writes:
            writes[(write.name, write.kind, write.line, write.col)] = write
        self.summary.global_writes = [writes[k] for k in sorted(writes)]

    # -- statements -----------------------------------------------------
    def _visit_stmt(self, stmt: ast.stmt) -> None:
        for node in _iter_scope([stmt]):
            if isinstance(node, ast.Assign):
                atoms = self._atoms(node.value)
                for target in node.targets:
                    self._bind_target(target, atoms, node)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._bind_target(
                    node.target, self._atoms(node.value), node
                )
            elif isinstance(node, ast.AugAssign):
                atoms = self._atoms(node.value)
                if isinstance(node.target, ast.Name):
                    name = node.target.id
                    self.env.setdefault(name, set()).update(atoms)
                    if name in self.global_decls:
                        self._record_global_write(
                            name, "global-augassign", node
                        )
            elif isinstance(node, ast.Return) and node.value is not None:
                self.summary.returns = sorted(
                    set(self.summary.returns) | self._atoms(node.value)
                )
            elif isinstance(node, ast.Call):
                self._atoms(node)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                self._bind_target(node.target, self._atoms(node.iter), node)

    def _bind_target(
        self, target: ast.expr, atoms: set[str], stmt: ast.AST
    ) -> None:
        if isinstance(target, ast.Name):
            name = target.id
            self.env.setdefault(name, set()).update(atoms)
            if name in self.global_decls:
                self._record_global_write(name, "global-assign", stmt)
        elif isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Name
        ):
            name = target.value.id
            if self._is_module_global(name):
                self._record_global_write(name, "subscript", stmt)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, atoms, stmt)

    def _is_module_global(self, name: str) -> bool:
        """Whether *name* resolves to module-level mutable state here."""
        if name in self.global_decls:
            return name in self.s.module_level_names
        return (
            name not in self.local_bound
            and name not in self.shadowed
            and name in self.s.mutable_globals
        )

    def _record_global_write(
        self, name: str, kind: str, node: ast.AST
    ) -> None:
        line = getattr(node, "lineno", self.line)
        self.summary.global_writes.append(
            GlobalWrite(
                name=name,
                kind=kind,
                line=line,
                col=getattr(node, "col_offset", 0) + 1,
                line_text=self.s.line_text(line),
            )
        )

    # -- expressions → atoms -------------------------------------------
    def _atoms(self, node: ast.expr) -> set[str]:
        atoms: set[str] = set()
        self._expr_atoms(node, atoms)
        return atoms

    def _expr_atoms(self, node: ast.expr, out: set[str]) -> None:
        if isinstance(node, ast.Name):
            out.update(self.env.get(node.id, set()))
            return
        if isinstance(node, ast.Call):
            self._call_atoms(node, out)
            return
        if isinstance(node, ast.Attribute):
            if self.s.resolver.resolve(node) == "os.environ":
                out.add("L:env")
                return
            self._expr_atoms(node.value, out)
            return
        if isinstance(node, ast.Subscript):
            if self.s.resolver.resolve(node.value) == "os.environ":
                out.add("L:env")
                return
            self._expr_atoms(node.value, out)
            return
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self._expr_atoms(value.value, out)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr_atoms(child, out)

    def _resolve_self_call(self, node: ast.Call) -> "str | None":
        """Resolve ``self.method(...)`` / ``cls.method(...)`` to the
        enclosing class's qualified method name, so the project call
        graph can follow intra-class edges."""
        if self.class_qname is None:
            return None
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
        ):
            return f"{self.class_qname}.{func.attr}"
        return None

    def _resolve_local_call(self, node: ast.Call) -> "str | None":
        """Resolve a bare-name call of a def nested in this or an
        enclosing function to the nested def's qname."""
        if isinstance(node.func, ast.Name):
            return self.local_funcs.get(node.func.id)
        return None

    def _call_atoms(self, node: ast.Call, out: set[str]) -> None:
        origin = (
            self._resolve_self_call(node)
            or self._resolve_local_call(node)
            or self.s.resolve_callee(node)
        )
        # In-place mutation of a module global through a method call:
        # ``_corpus.append(case)``.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_METHODS
            and isinstance(node.func.value, ast.Name)
            and self._is_module_global(node.func.value.id)
        ):
            self._record_global_write(
                node.func.value.id, f"method:{node.func.attr}", node
            )
        arg_atom_lists = [self._atoms(arg) for arg in node.args]
        kw_atoms = {
            kw.arg: self._atoms(kw.value)
            for kw in node.keywords
            if kw.arg is not None
        }
        union: set[str] = set().union(*arg_atom_lists, *kw_atoms.values())
        if origin is None:
            # Unknown callee (lambda, subscripted, ...): assume taint
            # flows through rather than vanishing.
            out.update(union)
            return
        if origin.startswith("os.environ") or origin == "os.getenv":
            out.add("L:env")
            return
        if is_clock_source(origin):
            out.add("L:clock")
            return
        if is_seed_source(origin):
            out.add("L:seed")
            if "derive_rng" in origin or "derive_case_rng" in origin:
                out.add("L:rng-blessed")
            return
        if is_rng_constructor(origin):
            site = RngSite(
                callee=origin,
                line=node.lineno,
                col=node.col_offset + 1,
                arg_atoms=sorted(union),
                has_args=bool(node.args or node.keywords),
                line_text=self.s.line_text(node.lineno),
            )
            self.summary.rng_sites.append(site)
            out.add(site.atom)
            return
        self.summary.calls.append(
            CallSite(
                callee=origin,
                line=node.lineno,
                col=node.col_offset + 1,
                args=[sorted(a) for a in arg_atom_lists],
                keywords={k: sorted(v) for k, v in kw_atoms.items()},
                managed=self._call_is_managed(node),
                awaited=id(node) in self._awaited_ids,
                line_text=self.s.line_text(node.lineno),
            )
        )
        if is_resource_acquirer(origin):
            self.summary.acquires_resource = True
            out.add("L:resource")
            return
        out.add(f"R:{origin}")
        if origin in _TRANSPARENT_CALLS:
            out.update(union)


class ModuleSummarizer:
    """Extracts the :class:`ModuleSummary` of one parsed file."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.resolver = ctx.resolver
        self.module_level_names: set[str] = set()
        self.mutable_globals: set[str] = set()
        self.local_defs: set[str] = {
            node.name
            for node in ctx.tree.body
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        }
        self._collect_module_level()

    def line_text(self, line: int) -> str:
        if 0 < line <= len(self.ctx.lines):
            return self.ctx.lines[line - 1]
        return ""

    def _collect_module_level(self) -> None:
        for stmt in self.ctx.tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            for target in targets:
                if isinstance(target, ast.Name):
                    self.module_level_names.add(target.id)
                    if value is not None and _is_mutable_initializer(
                        value, self.resolver
                    ):
                        self.mutable_globals.add(target.id)

    def resolve_callee(self, node: ast.Call) -> str | None:
        """Dotted callee, module-qualified for intra-module calls."""
        origin = self.resolver.resolve(node.func)
        if origin is None:
            return None
        head = origin.split(".", 1)[0]
        # A bare local name defined in this module refers to the
        # module's own function/class — qualify it so the project
        # symbol table can find it.
        if (
            self.ctx.module
            and head not in self.resolver.aliases
            and head in self.local_defs
        ):
            return f"{self.ctx.module}.{origin}"
        return origin

    def run(self) -> ModuleSummary:
        summary = ModuleSummary(
            module=self.ctx.module,
            rel=self.ctx.rel,
            sha256=sha256_text(self.ctx.source),
            imports=dict(self.resolver.aliases),
        )
        prefix = self.ctx.module or self.ctx.rel
        # Top-level statements, as a pseudo-function no code can call.
        self._summarize(summary, self.ctx.tree, f"{prefix}.<module>")
        for node in self.ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._summarize(summary, node, f"{prefix}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                class_qname = f"{prefix}.{node.name}"
                summary.classes.append(class_qname)
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        self._summarize(
                            summary,
                            item,
                            f"{class_qname}.{item.name}",
                            class_qname,
                        )
        summary.module_globals = sorted(self.mutable_globals)
        return summary

    def _summarize(
        self,
        summary: ModuleSummary,
        node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Module,
        qname: str,
        class_qname: str | None = None,
        enclosing: dict[str, str] | None = None,
        shadowed: frozenset[str] = frozenset(),
    ) -> None:
        """Summarize *node* as *qname*, then the defs nested in it."""
        extractor = _FunctionExtractor(
            self, node, qname, class_qname, enclosing, shadowed
        )
        summary.functions[qname] = extractor.run()
        for inner in extractor.nested_defs:
            self._summarize(
                summary,
                inner,
                f"{qname}.{inner.name}",
                class_qname,
                extractor.local_funcs,
                shadowed | extractor.local_bound,
            )


def summarize(ctx: FileContext) -> ModuleSummary:
    """Phase-1 extraction of *ctx* (one cheap walk per function)."""
    return ModuleSummarizer(ctx).run()
