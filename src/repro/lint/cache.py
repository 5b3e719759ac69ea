"""The summary cache: warm re-lints only re-analyze what changed.

Phase 1 (parse + per-file rules + summary extraction) is the expensive
part of a lint run — a couple hundred ASTs.  Phase 2 (the whole-program
fixpoint) is pure dict math over summaries and runs in milliseconds.
The cache therefore stores, per file, keyed by the SHA-256 of its
source:

* the extracted :class:`~repro.lint.project.ModuleSummary`,
* the per-file rule findings surviving inline suppression, and the
  suppression count.

A warm run re-parses only files whose hash changed; every other module
contributes its cached summary to phase 2, which always re-runs — so an
edit to one module is still checked against the *whole* program, and
the engine reports the invalidation set (the changed modules plus their
transitive reverse importers) for observability and tests.

The cache is invalidated wholesale when the engine fingerprint changes:
rule set, the linter's own source, summary format version, or cache
schema version.  It is a pure accelerator — deleting it is always safe.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.lint.checker import Finding
from repro.lint.project import SUMMARY_VERSION, ModuleSummary

#: Cache schema version, bumped on incompatible change.
CACHE_VERSION = 1

#: Default cache filename, resolved against the lint root.
DEFAULT_CACHE = ".repro-lint-cache.json"

#: The linter package: its rules, summary extraction and taint engine.
_LINT_PACKAGE = Path(__file__).resolve().parent


def _source_digest() -> str:
    """SHA-256 over every ``.py`` file of the linter, so an edit to a
    rule or to the project tables invalidates cached findings."""
    digest = hashlib.sha256()
    for path in sorted(_LINT_PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(_LINT_PACKAGE).as_posix().encode("utf-8"))
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def engine_fingerprint(rule_ids: list[str]) -> str:
    """Identity of the analysis configuration a cache entry is valid
    for: cache schema, summary format, the linter's own source, and the
    selected rule set."""
    payload = json.dumps(
        {
            "cache": CACHE_VERSION,
            "summary": SUMMARY_VERSION,
            "sources": _source_digest(),
            "rules": sorted(rule_ids),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass
class CacheEntry:
    """Everything phase 1 produced for one file."""

    sha256: str
    summary: ModuleSummary
    #: Findings surviving inline suppression.
    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0

    def to_json(self) -> dict[str, Any]:
        return {
            "sha256": self.sha256,
            "summary": self.summary.to_json(),
            "findings": [f.to_json() for f in self.findings],
            "suppressed": self.suppressed,
        }

    @classmethod
    def from_json(cls, raw: dict[str, Any]) -> "CacheEntry":
        return cls(
            sha256=raw["sha256"],
            summary=ModuleSummary.from_json(raw["summary"]),
            findings=[
                Finding(
                    path=f["path"],
                    line=f["line"],
                    col=f["col"],
                    rule=f["rule"],
                    message=f["message"],
                )
                for f in raw["findings"]
            ],
            suppressed=raw["suppressed"],
        )


class SummaryCache:
    """The on-disk phase-1 cache of one lint root."""

    def __init__(self, path: str | Path, fingerprint: str) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.entries: dict[str, CacheEntry] = {}
        self.hits = 0
        self.misses = 0
        self._loaded_shas: dict[str, str] = {}

    # -- persistence ---------------------------------------------------
    @classmethod
    def load(cls, path: str | Path, fingerprint: str) -> "SummaryCache":
        """Read the cache at *path*; a missing, malformed, or
        differently-fingerprinted cache yields an empty one."""
        cache = cls(path, fingerprint)
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return cache
        if (
            not isinstance(raw, dict)
            or raw.get("version") != CACHE_VERSION
            or raw.get("fingerprint") != fingerprint
        ):
            return cache
        try:
            for rel, entry in raw.get("files", {}).items():
                cache.entries[rel] = CacheEntry.from_json(entry)
        except (KeyError, TypeError, ValueError):
            cache.entries.clear()
            return cache
        cache._loaded_shas = {
            rel: entry.sha256 for rel, entry in cache.entries.items()
        }
        return cache

    def save(self) -> None:
        """Write the cache (sorted keys, stable bytes)."""
        payload = {
            "version": CACHE_VERSION,
            "fingerprint": self.fingerprint,
            "files": {
                rel: entry.to_json()
                for rel, entry in sorted(self.entries.items())
            },
        }
        self.path.write_text(
            json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8"
        )

    # -- lookups -------------------------------------------------------
    def get(self, rel: str, sha256: str) -> CacheEntry | None:
        """Cache hit for *rel* at content *sha256*, if any."""
        entry = self.entries.get(rel)
        if entry is not None and entry.sha256 == sha256:
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def put(self, rel: str, entry: CacheEntry) -> None:
        self.entries[rel] = entry

    def changed_since_load(self, rel: str, sha256: str) -> bool:
        """Whether *rel* differs from what the loaded cache recorded
        (new files count as changed)."""
        return self._loaded_shas.get(rel) != sha256

    def prune(self, keep: set[str]) -> None:
        """Drop entries for files no longer part of the lint scope."""
        for rel in list(self.entries):
            if rel not in keep:
                del self.entries[rel]
