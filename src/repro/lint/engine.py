"""File discovery, the two-phase lint driver, and suppressions.

:class:`LintEngine` runs a lint as two phases:

* **Phase 1 — per file, cached.**  Each ``*.py`` file is hashed
  (SHA-256); on a cache hit its per-file findings and module summary
  are reused verbatim, otherwise the file is parsed once, every
  selected per-file rule's checker walks the shared AST, inline
  suppressions are applied, and the
  :class:`~repro.lint.project.ModuleSummary` is extracted.
* **Phase 2 — whole program, always.**  The summaries are stitched
  into the project call graph, the taint fixpoint runs
  (:func:`repro.lint.taint.analyze`), and the interprocedural rules
  (DET101/DET102/PAR101/EXC101) emit findings anchored at
  summary-recorded sites — no AST needed, which is why warm re-lints
  are fast while still checking every edit against the whole program.

The report's :attr:`~LintReport.invalidated_modules` records which
modules phase 2 had to *re-verify* because of this run's edits: the
changed modules plus their transitive reverse importers.

Suppressions
------------
A finding is suppressed by a comment on its own physical line::

    latency = time.time()  # repro-lint: ignore[DET002]

``ignore[RULE1,RULE2]`` scopes the suppression; a bare
``# repro-lint: ignore`` suppresses every rule on that line.  Policy
(docs/static-analysis.md): suppressions are for the rare *intentional*
exception and must carry a justification in an adjacent comment —
determinism rules (DET001/DET002/DET101/DET102) are fixed, not
suppressed.  An inline suppression is the only way a finding is let
through: every other finding fails the run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.cache import CacheEntry, SummaryCache, engine_fingerprint
from repro.lint.checker import Checker, FileContext, Finding, ProjectChecker
from repro.lint.project import ModuleSummary, sha256_text, summarize
from repro.lint.rules import (
    ALL_CHECKERS,
    PROJECT_CHECKERS,
    RULES,
)
from repro.lint.taint import ProjectAnalysis, analyze

#: Directory name holding intentional-finding fixtures; skipped when a
#: *parent* directory is walked (linting the fixtures directly still
#: works — the golden tests depend on it).
FIXTURE_DIR_NAME = "lint_fixtures"

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?"
)


def suppressed_rules(line: str) -> frozenset[str] | None:
    """Rules suppressed on *line*: a set of ids, ``frozenset()`` for an
    unscoped ``ignore`` (suppress everything), or ``None`` for no
    directive."""
    match = _SUPPRESS_RE.search(line)
    if match is None:
        return None
    rules = match.group("rules")
    if rules is None:
        return frozenset()
    return frozenset(
        rule.strip().upper() for rule in rules.split(",") if rule.strip()
    )


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0
    parse_errors: list[Finding] = field(default_factory=list)
    #: Phase-1 cache telemetry: files served from the summary cache vs
    #: parsed fresh this run.
    cache_hits: int = 0
    parsed: int = 0
    #: Modules phase 2 re-verified because of this run's edits: the
    #: changed modules plus their transitive reverse importers.
    invalidated_modules: list[str] = field(default_factory=list)

    @property
    def all_findings(self) -> list[Finding]:
        """Rule findings plus parse errors, in location order."""
        return sorted(self.findings + self.parse_errors)

    def counts_by_rule(self) -> dict[str, int]:
        """``{rule: finding count}`` including parse errors."""
        counts: dict[str, int] = {}
        for finding in self.all_findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def to_json(self) -> dict[str, object]:
        """The ``--format json`` document."""
        return {
            "findings": [f.to_json() for f in self.all_findings],
            "counts": self.counts_by_rule(),
            "files_checked": self.files_checked,
            "suppressed": self.suppressed,
            "cache": {
                "hits": self.cache_hits,
                "parsed": self.parsed,
                "invalidated_modules": list(self.invalidated_modules),
            },
        }


class LintEngine:
    """One configured lint run: selected rules, root, cache."""

    def __init__(
        self,
        root: str | Path = ".",
        select: Sequence[str] | None = None,
        ignore: Sequence[str] | None = None,
        checkers: Sequence[type[Checker]] | None = None,
        project_checkers: Sequence[type[ProjectChecker]] | None = None,
        cache_path: str | Path | None = None,
    ) -> None:
        self.root = Path(root).resolve()
        available = list(checkers) if checkers is not None else list(ALL_CHECKERS)
        available_project = (
            list(project_checkers)
            if project_checkers is not None
            else list(PROJECT_CHECKERS)
        )
        chosen = {c.rule for c in available} | {
            c.rule for c in available_project
        }
        if select:
            chosen &= _validate_rules(select)
        if ignore:
            chosen -= _validate_rules(ignore)
        self.checkers: tuple[type[Checker], ...] = tuple(
            c for c in available if c.rule in chosen
        )
        self.project_checkers: tuple[type[ProjectChecker], ...] = tuple(
            c for c in available_project if c.rule in chosen
        )
        #: The cache is keyed to the *full* rule configuration: a
        #: different selection invalidates it wholesale.
        self._fingerprint = engine_fingerprint(sorted(chosen))
        self.cache_path = Path(cache_path) if cache_path is not None else None

    # -- discovery ------------------------------------------------------
    def discover(self, paths: Iterable[str | Path]) -> list[Path]:
        """All ``*.py`` files under *paths*, sorted, de-duplicated.

        Walking a directory skips nested ``lint_fixtures`` trees (they
        hold intentional findings); passing a fixture file or the
        fixtures directory itself as an explicit path still lints it.
        """
        seen: dict[Path, None] = {}
        for raw in paths:
            path = (
                (self.root / raw).resolve()
                if not Path(raw).is_absolute()
                else Path(raw)
            )
            if path.is_dir():
                inside_fixtures = FIXTURE_DIR_NAME in path.parts
                for candidate in sorted(path.rglob("*.py")):
                    if not inside_fixtures and FIXTURE_DIR_NAME in (
                        candidate.relative_to(path).parts
                    ):
                        continue
                    seen.setdefault(candidate, None)
            elif path.suffix == ".py":
                seen.setdefault(path, None)
            else:
                raise FileNotFoundError(f"no such file or directory: {raw}")
        return sorted(seen)

    def _relpath(self, path: Path) -> str:
        try:
            return path.relative_to(self.root).as_posix()
        except ValueError:
            return path.as_posix()

    @staticmethod
    def module_name(path: Path) -> str:
        """Dotted module of *path*, anchored at the ``repro`` package."""
        parts = list(path.with_suffix("").parts)
        if parts and parts[-1] == "__init__":
            parts.pop()
        if "repro" not in parts:
            return ""
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        return ".".join(parts[anchor:])

    # -- phase 1: one file ---------------------------------------------
    def lint_file(self, path: Path) -> tuple[list[Finding], FileContext | None]:
        """Raw findings of one file (suppressions not yet applied)."""
        rel = self._relpath(path)
        try:
            ctx = FileContext.parse(path, rel, self.module_name(path))
        except SyntaxError as exc:
            return (
                [
                    Finding(
                        path=rel,
                        line=exc.lineno or 1,
                        col=(exc.offset or 1),
                        rule="SYN000",
                        message=f"file does not parse: {exc.msg}",
                    )
                ],
                None,
            )
        findings: list[Finding] = []
        for checker_cls in self.checkers:
            if checker_cls.interested(ctx):
                findings.extend(checker_cls(ctx).run())
        return findings, ctx

    def _apply_suppressions(
        self,
        raw: list[Finding],
        line_texts: dict[int, str],
    ) -> tuple[list[Finding], int]:
        """Drop the findings an inline suppression covers."""
        kept: list[Finding] = []
        suppressed = 0
        for finding in sorted(raw):
            directive = suppressed_rules(line_texts.get(finding.line, ""))
            if directive is not None and (
                not directive or finding.rule in directive
            ):
                suppressed += 1
                continue
            kept.append(finding)
        return kept, suppressed

    # -- the two-phase run ---------------------------------------------
    def run(self, paths: Iterable[str | Path]) -> LintReport:
        """Lint *paths*, apply inline suppressions, and report."""
        report = LintReport()
        cache: SummaryCache | None = None
        if self.cache_path is not None:
            cache = SummaryCache.load(self.cache_path, self._fingerprint)

        summaries: list[ModuleSummary] = []
        changed_modules: set[str] = set()
        kept_rels: set[str] = set()

        for path in self.discover(paths):
            rel = self._relpath(path)
            kept_rels.add(rel)
            report.files_checked += 1
            try:
                source = path.read_text(encoding="utf-8")
            except OSError as exc:
                raise FileNotFoundError(f"cannot read {rel}: {exc}") from exc
            sha = sha256_text(source)
            entry = cache.get(rel, sha) if cache is not None else None
            if entry is not None:
                report.cache_hits += 1
                summaries.append(entry.summary)
                report.suppressed += entry.suppressed
                report.findings.extend(entry.findings)
                continue
            report.parsed += 1
            try:
                ctx = FileContext.from_source(
                    source, path, rel, self.module_name(path)
                )
            except SyntaxError as exc:
                report.parse_errors.append(
                    Finding(
                        path=rel,
                        line=exc.lineno or 1,
                        col=(exc.offset or 1),
                        rule="SYN000",
                        message=f"file does not parse: {exc.msg}",
                    )
                )
                continue
            raw: list[Finding] = []
            for checker_cls in self.checkers:
                if checker_cls.interested(ctx):
                    raw.extend(checker_cls(ctx).run())
            line_texts = {
                index + 1: text for index, text in enumerate(ctx.lines)
            }
            kept, suppressed = self._apply_suppressions(raw, line_texts)
            report.suppressed += suppressed
            summary = summarize(ctx)
            summaries.append(summary)
            report.findings.extend(kept)
            if cache is not None:
                cache.put(
                    rel,
                    CacheEntry(
                        sha256=sha,
                        summary=summary,
                        findings=kept,
                        suppressed=suppressed,
                    ),
                )
        # A module is "changed" when the loaded cache knew a different
        # hash for its file (or nothing at all); with no cache, every
        # module counts (a cold run re-verifies the whole program).
        if cache is None:
            changed_modules = {s.module for s in summaries if s.module}
        else:
            changed_modules = {
                s.module
                for s in summaries
                if s.module and cache.changed_since_load(s.rel, s.sha256)
            }

        # -- phase 2: whole program ------------------------------------
        analysis: ProjectAnalysis | None = None
        if self.project_checkers:
            analysis = analyze(summaries)
            project_raw: list[Finding] = []
            for checker_cls in self.project_checkers:
                project_raw.extend(checker_cls().check(analysis))
            texts_by_rel: dict[str, dict[int, str]] = {}
            for summary in summaries:
                texts_by_rel.setdefault(summary.rel, {}).update(
                    summary.line_texts()
                )
            by_rel: dict[str, list[Finding]] = {}
            for finding in project_raw:
                by_rel.setdefault(finding.path, []).append(finding)
            for rel in sorted(by_rel):
                kept, suppressed = self._apply_suppressions(
                    by_rel[rel], texts_by_rel.get(rel, {})
                )
                report.suppressed += suppressed
                report.findings.extend(kept)
            report.invalidated_modules = sorted(
                analysis.transitive_importers(changed_modules)
            )
        else:
            report.invalidated_modules = sorted(changed_modules)

        report.findings.sort()
        if cache is not None:
            cache.prune(kept_rels)
            cache.save()
        return report


def _validate_rules(rules: Sequence[str]) -> set[str]:
    normalized = {rule.strip().upper() for rule in rules if rule.strip()}
    unknown = normalized - set(RULES)
    if unknown:
        raise ValueError(
            f"unknown rule id(s): {', '.join(sorted(unknown))};"
            f" available: {', '.join(sorted(RULES))}"
        )
    return normalized

