"""Phase 2: the project call graph and the forward taint fixpoint.

Input: one :class:`~repro.lint.project.ModuleSummary` per file (fresh or
from the SHA-256 cache).  Output: a :class:`ProjectAnalysis` the
interprocedural rules (DET101/DET102/PAR101/EXC101) query — no ASTs are
touched here, which is what makes warm re-lints cheap.

The lattice
-----------
Taint values are subsets of a small label set; ⊥ is the empty set and
join is union, so the fixpoint is a standard monotone worklist:

``seed``
    derived from a trial seed (``spawn_trial_seed``/``derive_rng``);
``rng-blessed``
    an RNG stream whose constructor received seed-derived input;
``rng-unblessed``
    an RNG stream that provably did *not* — OS entropy (no arguments)
    or constants only, through every known call chain;
``clock``
    derived from the host clock (raw ``time.*`` or the injectable
    ``wall_clock()``/``monotonic_clock()`` helpers);
``env``
    read from ``os.environ``;
``resource``
    a kernel-backed pool resource (shared memory, rings, boards).

Three families of facts reach the fixpoint together:

* ``param_labels[fn][p]`` — labels flowing into parameter *p* from
  every resolved call site in the project;
* ``return_labels[fn]`` — labels the function's return value carries;
* ``returns_resource[fn]`` — whether the function hands its caller a
  kernel-backed resource (directly or through another helper), which is
  what EXC101 follows through call chains.

RNG blessedness is decided *optimistically at API boundaries*: a
constructor seeded from a parameter nobody in the project calls (a
public entry point) is presumed blessed — the linter flags provable
bugs, not unknown callers.  A constructor seeded only by constants, or
with no arguments at all, is unblessed everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.lint.project import FunctionSummary, ModuleSummary, RngSite

#: Concrete lattice labels (the ``L:`` atom namespace plus the two
#: RNG verdicts assigned during the fixpoint).  ``api`` is virtual: it
#: marks values entering through a parameter of a function no project
#: code calls — an API boundary — and propagates like any other label,
#: so boundary optimism is *transitive* through helper chains.
LABELS = frozenset(
    {"seed", "rng-blessed", "rng-unblessed", "clock", "env", "resource",
     "api"}
)

#: Maximum worklist sweeps before the fixpoint is declared diverged
#: (defensive only — the lattice is finite so it always converges).
_MAX_SWEEPS = 50


@dataclass
class ProjectAnalysis:
    """Everything phase 2 derived from the module summaries."""

    #: module dotted name -> its summary (only modules with names).
    modules: dict[str, ModuleSummary] = field(default_factory=dict)
    #: every summary, including path-keyed ones outside repro packages.
    all_summaries: list[ModuleSummary] = field(default_factory=list)
    #: function qname -> summary (the project symbol table).
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    #: function qname -> owning module dotted name.
    function_module: dict[str, str] = field(default_factory=dict)
    #: function qname -> lint-root-relative path of its file.
    function_rel: dict[str, str] = field(default_factory=dict)
    #: caller qname -> resolved callee qnames (the call graph).
    call_graph: dict[str, set[str]] = field(default_factory=dict)
    #: callee qname -> caller qnames.
    callers: dict[str, set[str]] = field(default_factory=dict)
    #: fn qname -> param name -> labels.
    param_labels: dict[str, dict[str, set[str]]] = field(default_factory=dict)
    #: fn qname -> labels of its return value.
    return_labels: dict[str, set[str]] = field(default_factory=dict)
    #: fn qname -> returns a kernel-backed resource to its caller.
    returns_resource: dict[str, bool] = field(default_factory=dict)
    #: (fn qname, rng atom) -> blessed verdict.
    rng_blessed: dict[tuple[str, str], bool] = field(default_factory=dict)

    # -- queries used by the rules -------------------------------------
    def resolve_callee(self, caller: str, callee: str) -> str | None:
        """Project function a call-site's dotted *callee* refers to, or
        ``None`` for externals.  Class instantiation resolves to the
        class's ``__init__`` when the project defines one."""
        if callee in self.functions:
            return callee
        init = f"{callee}.__init__"
        if init in self.functions:
            return init
        return None

    def resolve_atoms(self, fn: str, atoms: Iterable[str]) -> set[str]:
        """Concrete labels an atom set carries, in the context of *fn*."""
        labels: set[str] = set()
        summary = self.functions.get(fn)
        for atom in atoms:
            kind, _, rest = atom.partition(":")
            if kind == "L":
                labels.add(rest)
            elif kind == "P":
                labels.update(self.param_labels.get(fn, {}).get(rest, set()))
            elif kind == "R":
                target = self.resolve_callee(fn, rest)
                if target is not None:
                    labels.update(self.return_labels.get(target, set()))
            elif kind == "RNG" and summary is not None:
                if self.rng_blessed.get((fn, atom), True):
                    labels.add("rng-blessed")
                else:
                    labels.add("rng-unblessed")
        return labels

    def reachable_from(self, entry_points: Iterable[str]) -> dict[str, str]:
        """``{fn: entry}`` for every function reachable from an entry
        point over the resolved call graph (each function attributed to
        the first entry that reaches it, entries in sorted order)."""
        reached: dict[str, str] = {}
        for entry in sorted(set(entry_points)):
            if entry not in self.functions:
                continue
            stack = [entry]
            while stack:
                fn = stack.pop()
                if fn in reached:
                    continue
                reached[fn] = entry
                stack.extend(sorted(self.call_graph.get(fn, ())))
        return reached

    def module_of(self, fn: str) -> str:
        return self.function_module.get(fn, "")

    # -- import-graph queries (cache invalidation) ---------------------
    def importers_of(self, module: str) -> set[str]:
        """Modules that import *module* (direct reverse dependencies)."""
        out: set[str] = set()
        for name, summary in self.modules.items():
            for origin in summary.imports.values():
                if origin == module or origin.startswith(module + "."):
                    out.add(name)
                    break
        return out

    def transitive_importers(self, modules: Iterable[str]) -> set[str]:
        """*modules* plus every module that transitively imports one."""
        result = set(modules)
        frontier = list(result)
        while frontier:
            target = frontier.pop()
            for importer in self.importers_of(target):
                if importer not in result:
                    result.add(importer)
                    frontier.append(importer)
        return result


def _blessed(site: RngSite, fn: str, analysis: ProjectAnalysis) -> bool:
    """Whether the RNG constructed at *site* is seed-derived.

    No arguments → OS entropy → unblessed.  Otherwise blessed when any
    argument resolves to ``seed``/``rng-blessed``, or to ``api`` — the
    value entered the project through a parameter nobody calls (an API
    boundary), possibly several helper hops away, and the linter flags
    provable bugs, not unknown callers.
    """
    if not site.has_args:
        return False
    # Outside repro packages (tests, benchmarks, scripts) a pinned
    # literal seed is the deterministic idiom, not a provenance bug —
    # the trial-purity contract binds production code only.
    if not analysis.module_of(fn):
        return True
    labels = analysis.resolve_atoms(fn, site.arg_atoms)
    if labels & {"seed", "rng-blessed", "api"}:
        return True
    for atom in site.arg_atoms:
        kind, _, rest = atom.partition(":")
        if kind == "R":
            # A call we cannot resolve inside the project may well
            # return a derived seed — stay optimistic for externals.
            if analysis.resolve_callee(fn, rest) is None:
                return True
    return False


def analyze(summaries: Iterable[ModuleSummary]) -> ProjectAnalysis:
    """Stitch *summaries* together and run the taint fixpoint."""
    analysis = ProjectAnalysis()
    for summary in summaries:
        analysis.all_summaries.append(summary)
        if summary.module:
            analysis.modules[summary.module] = summary
        for qname, fn in summary.functions.items():
            analysis.functions[qname] = fn
            analysis.function_module[qname] = summary.module
            analysis.function_rel[qname] = summary.rel
            analysis.param_labels[qname] = {p: set() for p in fn.params}
            analysis.return_labels[qname] = set()
            analysis.returns_resource[qname] = False

    # -- call graph ----------------------------------------------------
    for qname, fn in analysis.functions.items():
        # A nested def runs only when its enclosing function does, even
        # when it is only handed out as a callback; the edge serves
        # reachability, not ``callers`` (a callback's parameters come
        # from code outside the project, like an API boundary's).
        edges: set[str] = set(fn.nested)
        for call in fn.calls:
            target = analysis.resolve_callee(qname, call.callee)
            if target is not None:
                edges.add(target)
                analysis.callers.setdefault(target, set()).add(qname)
        analysis.call_graph[qname] = edges

    # Parameters of functions no project code calls are API boundaries:
    # their values arrive from outside the analyzed program, so they
    # carry the virtual ``api`` label (propagated transitively by the
    # fixpoint below — a helper called only by boundary functions is
    # itself optimistically treated).
    for qname in analysis.functions:
        if not analysis.callers.get(qname):
            for slot in analysis.param_labels[qname].values():
                slot.add("api")

    # -- fixpoint ------------------------------------------------------
    for _ in range(_MAX_SWEEPS):
        changed = False
        for qname, fn in analysis.functions.items():
            # 1. RNG site verdicts (monotone towards unblessed only
            #    through growing evidence, so recompute every sweep).
            for site in fn.rng_sites:
                verdict = _blessed(site, qname, analysis)
                key = (qname, site.atom)
                if analysis.rng_blessed.get(key) != verdict:
                    analysis.rng_blessed[key] = verdict
                    changed = True
            # 2. Return labels.
            resolved = analysis.resolve_atoms(qname, fn.returns)
            if not resolved <= analysis.return_labels[qname]:
                analysis.return_labels[qname].update(resolved)
                changed = True
            # 3. returns_resource: direct label or transitive helper.
            if not analysis.returns_resource[qname]:
                if "resource" in analysis.return_labels[qname]:
                    analysis.returns_resource[qname] = True
                    changed = True
                else:
                    for atom in fn.returns:
                        kind, _, rest = atom.partition(":")
                        if kind != "R":
                            continue
                        target = analysis.resolve_callee(qname, rest)
                        if target is not None and analysis.returns_resource.get(
                            target, False
                        ):
                            analysis.returns_resource[qname] = True
                            changed = True
                            break
            # 4. Propagate argument labels into callee parameters.
            for call in fn.calls:
                target = analysis.resolve_callee(qname, call.callee)
                if target is None:
                    continue
                callee = analysis.functions[target]
                slots = analysis.param_labels[target]
                for index, atom_list in enumerate(call.args):
                    if index >= len(callee.params):
                        break
                    labels = analysis.resolve_atoms(qname, atom_list)
                    slot = slots[callee.params[index]]
                    if not labels <= slot:
                        slot.update(labels)
                        changed = True
                for kw_name, atom_list in call.keywords.items():
                    if kw_name not in slots:
                        continue
                    labels = analysis.resolve_atoms(qname, atom_list)
                    slot = slots[kw_name]
                    if not labels <= slot:
                        slot.update(labels)
                        changed = True
        if not changed:
            break
    return analysis
