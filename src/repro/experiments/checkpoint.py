"""Crash-safe on-disk state for experiment runs.

The paper's headline artifacts are hours-long multi-trial sweeps; a
killed process must not lose completed trials or leave a half-written
file that a later load mistakes for data.  This module provides the
persistence layer the supervised runner builds on:

* **Atomic writes** — every file lands via temp-file + ``fsync`` +
  ``os.replace`` in the same directory, so a reader observes either the
  old content or the new content, never a torn file.
* **Run manifest** (``manifest.json``) — one JSON document per run
  directory recording the experiment name, seed, configuration (and its
  hash, which ``--resume`` validates), fault-plan id, ``git describe``,
  status, per-segment history, and circuit-breaker events.
* **Trial journal** (``journal.jsonl``) — one JSON record per finished
  trial (success or contained failure), rewritten atomically on each
  append.  Successful trials reference a pickled payload under
  ``trials/`` so a resumed run can reload their results verbatim.

Nothing here knows how to *run* trials; see
:mod:`repro.experiments.runner` for supervision and resume logic.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.errors import CheckpointError

#: Manifest/journal schema version, bumped on incompatible change.
MANIFEST_VERSION = 1

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"
PAYLOAD_DIR = "trials"

#: Manifest ``status`` values.
STATUS_RUNNING = "running"
STATUS_COMPLETED = "completed"
STATUS_INTERRUPTED = "interrupted"
STATUS_DEADLINE = "deadline"
STATUS_INSUFFICIENT = "insufficient"
STATUS_FAILED = "failed"
STATUS_INVARIANT = "invariant"
STATUS_POISONED = "poisoned"


# ----------------------------------------------------------------------
# Atomic write primitives
# ----------------------------------------------------------------------
def _fsync_dir(directory: Path) -> None:
    """Flush a directory entry so a rename survives a crash."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync on dirs unsupported
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Write *data* to *path* atomically (temp + fsync + ``os.replace``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    _fsync_dir(path.parent)
    return path


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Atomic UTF-8 text write."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: str | Path, payload: Any) -> Path:
    """Atomic canonical-JSON write (sorted keys, trailing newline)."""
    return atomic_write_text(path, canonical_json(payload) + "\n")


def atomic_write_pickle(path: str | Path, payload: Any) -> Path:
    """Atomic pickle write (protocol pinned for stable bytes)."""
    return atomic_write_bytes(path, pickle.dumps(payload, protocol=4))


# ----------------------------------------------------------------------
# Hashing / identity helpers
# ----------------------------------------------------------------------
def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift, ``repr``
    fallback for non-JSON values (dataclasses, enums, tuples of them) so
    the same configuration always serializes to the same bytes."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=repr
    )


def config_hash(config: Mapping[str, Any]) -> str:
    """SHA-256 of a configuration mapping's canonical JSON."""
    return hashlib.sha256(canonical_json(dict(config)).encode("utf-8")).hexdigest()


def fault_plan_id(plan: Any) -> str | None:
    """Stable id of a :class:`~repro.faults.plan.FaultPlan` (or ``None``)."""
    if plan is None:
        return None
    digest = hashlib.sha256(
        repr((plan.seed, plan.specs)).encode("utf-8")
    ).hexdigest()
    return f"faultplan-{digest[:16]}"


def git_describe() -> str:
    """``git describe --always --dirty`` of the working tree, or
    ``"unknown"`` outside a repository."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


# ----------------------------------------------------------------------
# Run manifest
# ----------------------------------------------------------------------
@dataclass
class RunManifest:
    """The durable identity and status of one run directory."""

    experiment: str
    seed: int
    config: dict[str, Any]
    config_hash: str
    fault_plan: str | None = None
    git_describe: str = "unknown"
    status: str = STATUS_RUNNING
    trials_total: int = 0
    completed: int = 0
    failed: int = 0
    resumed: int = 0
    skipped: int = 0
    exit_code: int | None = None
    segments: list[dict[str, Any]] = field(default_factory=list)
    breaker_events: list[dict[str, Any]] = field(default_factory=list)
    breaker_state: str = "closed"
    poisoned: list[str] = field(default_factory=list)

    def add_segment(self, event: str) -> None:
        """Record one process lifetime touching this run.

        Timestamps route through the runner's injectable
        :func:`~repro.experiments.runner.wall_clock` (imported lazily —
        the runner imports this module at load time), so tests can stamp
        manifests deterministically via ``override_clocks``.
        """
        from repro.experiments.runner import wall_clock

        self.segments.append(
            {"event": event, "pid": os.getpid(), "time": wall_clock()}
        )

    def to_json(self) -> dict[str, Any]:
        """JSON form (config values stringified where needed)."""
        return {
            "format_version": MANIFEST_VERSION,
            "experiment": self.experiment,
            "seed": self.seed,
            "config": json.loads(canonical_json(self.config)),
            "config_hash": self.config_hash,
            "fault_plan": self.fault_plan,
            "git_describe": self.git_describe,
            "status": self.status,
            "trials_total": self.trials_total,
            "completed": self.completed,
            "failed": self.failed,
            "resumed": self.resumed,
            "skipped": self.skipped,
            "exit_code": self.exit_code,
            "segments": self.segments,
            "breaker_events": self.breaker_events,
            "breaker_state": self.breaker_state,
            "poisoned": self.poisoned,
        }

    def save(self, run_dir: str | Path) -> Path:
        """Atomically (re)write ``manifest.json``."""
        return atomic_write_json(Path(run_dir) / MANIFEST_NAME, self.to_json())

    @classmethod
    def load(cls, run_dir: str | Path) -> "RunManifest":
        """Read and validate a manifest written by :meth:`save`."""
        path = Path(run_dir) / MANIFEST_NAME
        if not path.exists():
            raise CheckpointError(f"no run manifest at {path}")
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable run manifest {path}: {exc}") from exc
        version = raw.get("format_version")
        if version != MANIFEST_VERSION:
            raise CheckpointError(
                f"unsupported manifest version {version!r} in {path}"
            )
        try:
            return cls(
                experiment=raw["experiment"],
                seed=raw["seed"],
                config=raw["config"],
                config_hash=raw["config_hash"],
                fault_plan=raw.get("fault_plan"),
                git_describe=raw.get("git_describe", "unknown"),
                status=raw.get("status", STATUS_RUNNING),
                trials_total=raw.get("trials_total", 0),
                completed=raw.get("completed", 0),
                failed=raw.get("failed", 0),
                resumed=raw.get("resumed", 0),
                skipped=raw.get("skipped", 0),
                exit_code=raw.get("exit_code"),
                segments=list(raw.get("segments", [])),
                breaker_events=list(raw.get("breaker_events", [])),
                breaker_state=raw.get("breaker_state", "closed"),
                poisoned=list(raw.get("poisoned", [])),
            )
        except KeyError as exc:
            raise CheckpointError(
                f"run manifest {path} is missing field {exc}"
            ) from exc


# ----------------------------------------------------------------------
# Trial journal
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JournalEntry:
    """One finished trial: a success with a payload, or a contained
    failure with its error summary."""

    index: int
    key: str
    status: str  # "ok" | "failed"
    elapsed_s: float
    payload: str | None = None  # run-dir-relative pickle path for "ok"
    error_type: str | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Whether the trial succeeded."""
        return self.status == "ok"

    def to_json(self) -> dict[str, Any]:
        record = {
            "index": self.index,
            "key": self.key,
            "status": self.status,
            "elapsed_s": self.elapsed_s,
        }
        if self.payload is not None:
            record["payload"] = self.payload
        if self.error_type is not None:
            record["error_type"] = self.error_type
            record["error"] = self.error
        return record

    @classmethod
    def from_json(cls, raw: dict[str, Any]) -> "JournalEntry":
        try:
            return cls(
                index=raw["index"],
                key=raw["key"],
                status=raw["status"],
                elapsed_s=raw["elapsed_s"],
                payload=raw.get("payload"),
                error_type=raw.get("error_type"),
                error=raw.get("error"),
            )
        except KeyError as exc:
            raise CheckpointError(
                f"journal record missing field {exc}: {raw!r}"
            ) from exc


class CheckpointJournal:
    """The per-trial checkpoint journal of one run directory.

    Appends rewrite the whole JSONL file through the atomic path — the
    journal on disk is always a complete, parseable prefix of the run.
    Successful trials pickle their result to ``trials/NNNN-<slug>.pkl``
    (also atomically) before the journal references it, so a crash
    between the two writes leaves an orphan payload, never a dangling
    reference.
    """

    def __init__(self, run_dir: str | Path) -> None:
        self.run_dir = Path(run_dir)
        self.path = self.run_dir / JOURNAL_NAME
        self._entries: dict[str, JournalEntry] = {}

    # -- introspection --------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def entries(self) -> Iterator[JournalEntry]:
        """Entries in plan-index order.

        Index order (not append order) is the canonical order: a pooled
        run journals trials as workers finish them, and sorting
        here is what makes its journal — and everything derived from it,
        like :func:`~repro.experiments.wf_common.dataset_from_run_dir` —
        byte-identical to a serial run's.
        """
        return iter(sorted(self._entries.values(), key=lambda e: e.index))

    def get(self, key: str) -> JournalEntry | None:
        """The entry for *key*, if journaled."""
        return self._entries.get(key)

    # -- persistence ----------------------------------------------------
    @classmethod
    def load(cls, run_dir: str | Path) -> "CheckpointJournal":
        """Read a journal (an absent file is an empty journal)."""
        journal = cls(run_dir)
        if not journal.path.exists():
            return journal
        text = journal.path.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CheckpointError(
                    f"corrupt journal {journal.path} line {lineno}: {exc}"
                ) from exc
            entry = JournalEntry.from_json(raw)
            journal._entries[entry.key] = entry
        return journal

    def _rewrite(self) -> None:
        lines = [
            canonical_json(entry.to_json()) for entry in self.entries()
        ]
        atomic_write_text(self.path, "\n".join(lines) + ("\n" if lines else ""))

    def record_success(
        self, index: int, key: str, result: Any, elapsed_s: float
    ) -> JournalEntry:
        """Pickle *result* and journal the trial as completed."""
        payload_rel = f"{PAYLOAD_DIR}/{index:04d}.pkl"
        atomic_write_pickle(self.run_dir / payload_rel, result)
        entry = JournalEntry(
            index=index,
            key=key,
            status="ok",
            elapsed_s=round(elapsed_s, 6),
            payload=payload_rel,
        )
        self._entries[key] = entry
        self._rewrite()
        return entry

    def record_failure(
        self, index: int, key: str, error: Exception, elapsed_s: float
    ) -> JournalEntry:
        """Journal a contained trial failure (no payload)."""
        return self.record_failure_info(
            index, key, type(error).__name__, str(error), elapsed_s=elapsed_s
        )

    def record_failure_info(
        self,
        index: int,
        key: str,
        error_type: str,
        error: str,
        elapsed_s: float,
    ) -> JournalEntry:
        """Journal a failure from its summary strings.

        The worker pool reports failures across a process boundary
        as ``(type name, message)`` rather than exception objects; this
        writes the same record :meth:`record_failure` would.
        """
        entry = JournalEntry(
            index=index,
            key=key,
            status="failed",
            elapsed_s=round(elapsed_s, 6),
            error_type=error_type,
            error=error,
        )
        self._entries[key] = entry
        self._rewrite()
        return entry

    def load_payload(self, key: str) -> Any:
        """Unpickle the stored result of a completed trial."""
        entry = self._entries.get(key)
        if entry is None or not entry.ok or entry.payload is None:
            raise CheckpointError(f"no completed payload for trial {key!r}")
        path = self.run_dir / entry.payload
        if not path.exists():
            raise CheckpointError(
                f"journal references missing payload {path} for trial {key!r}"
            )
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError) as exc:
            raise CheckpointError(
                f"corrupt trial payload {path} for {key!r}: {exc}"
            ) from exc
