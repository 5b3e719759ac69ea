"""Supervision primitives for the persistent worker pool.

:mod:`repro.experiments.pool` keeps long-lived worker processes alive
across experiment runs; this module holds the mechanisms that keep that
safe — everything here is process-local, dependency-free, and unit
testable without spawning a single worker:

* :class:`PoolConfig` — the hang deadline and the respawn budget.
* :class:`RespawnBackoff` — capped exponential delay between respawns
  of the same worker slot, so a crash-looping environment cannot burn
  CPU respawning at full speed.
* :class:`PoisonLedger` — strike accounting per trial key: a trial
  that repeatedly takes its worker down is quarantined (manifest-logged,
  exit code 8) instead of wedging the run in a kill/respawn loop.
* :func:`interrupt_shield` / :func:`sigterm_as_interrupt` — signal
  plumbing that guarantees checkpoint + manifest flushes complete even
  when SIGINT/SIGTERM lands mid-drain (the PR-5 teardown race).

A worker slot's lifecycle (``spawning → healthy → respawning``, with
``retired`` terminal) is named by the ``STATE_*`` constants of
:mod:`repro.invariants.pool`, which also checks it; liveness itself is
judged in the pool parent, from the dispatch time of the one trial a
worker holds.  Nothing here reads the host clock.
"""

from __future__ import annotations

import contextlib
import signal
import threading
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "InterruptLatch",
    "PoisonLedger",
    "PoolConfig",
    "RespawnBackoff",
    "interrupt_shield",
    "sigterm_as_interrupt",
]


#: Pool-level execution mode recorded when the pool runs trials inline
#: in the parent: fewer than two are pending, or the respawn budget is
#: exhausted (this run's or, for a pool marked broken, an earlier one's).
DEGRADED_SERIAL = "degraded-serial"


@dataclass(frozen=True)
class PoolConfig:
    """Tuning for one :class:`~repro.experiments.pool.WorkerPool`."""

    #: Floor of the SIGKILL deadline for a worker's trial, counted from
    #: its dispatch.  The effective deadline is ``max(hang_floor_s,
    #: hang_factor × longest observed trial)`` — the PR-2 watchdog
    #: discipline applied to worker liveness instead of the run budget.
    hang_floor_s: float = 30.0
    hang_factor: float = 3.0
    #: Total respawns one run tolerates before degrading to serial.
    respawn_budget: int = 8

    def __post_init__(self) -> None:
        if self.respawn_budget < 0:
            raise ValueError("respawn_budget cannot be negative")

    def hang_deadline_s(self, longest_trial_s: float) -> float:
        """The SIGKILL deadline given the longest trial seen so far."""
        return max(self.hang_floor_s, self.hang_factor * longest_trial_s)


# ----------------------------------------------------------------------
# Respawn backoff
# ----------------------------------------------------------------------
@dataclass
class RespawnBackoff:
    """Capped exponential backoff for respawning one worker slot."""

    base_s: float = 0.05
    cap_s: float = 2.0
    attempts: int = 0

    def next_delay(self) -> float:
        """Delay before the next respawn; advances the attempt count."""
        delay = min(self.base_s * (2.0 ** self.attempts), self.cap_s)
        self.attempts += 1
        return delay

    def reset(self) -> None:
        """Back to fast respawns (called after each trial result)."""
        self.attempts = 0


# ----------------------------------------------------------------------
# Poison ledger
# ----------------------------------------------------------------------
class PoisonLedger:
    """Strike accounting for trials that keep taking workers down.

    Every worker failure blames one trial: the one the worker held.
    One strike is forgiven — the trial is retried with pool-site chaos
    suppressed; at *threshold* strikes the trial is quarantined: dropped
    from the run, listed in the manifest's ``poisoned`` field, and
    reflected in exit code 8.
    """

    def __init__(self, threshold: int = 2) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.strikes: dict[str, int] = {}
        self.reasons: dict[str, list[str]] = {}
        self._poisoned: set[str] = set()

    def strike(self, key: str, reason: str) -> bool:
        """Record one strike against *key*; ``True`` once quarantined."""
        self.strikes[key] = self.strikes.get(key, 0) + 1
        self.reasons.setdefault(key, []).append(reason)
        if self.strikes[key] >= self.threshold:
            self._poisoned.add(key)
        return key in self._poisoned

    def is_poisoned(self, key: str) -> bool:
        """Whether *key* has hit the quarantine threshold."""
        return key in self._poisoned

    @property
    def poisoned(self) -> tuple[str, ...]:
        """Quarantined trial keys, sorted (the manifest order)."""
        return tuple(sorted(self._poisoned))

    @property
    def struck(self) -> tuple[str, ...]:
        """Every key with at least one strike, sorted."""
        return tuple(sorted(self.strikes))


# ----------------------------------------------------------------------
# Interrupt plumbing
# ----------------------------------------------------------------------
@dataclass
class InterruptLatch:
    """Interrupts delivered while a shield was up."""

    count: int = 0
    signals: list[int] = field(default_factory=list)

    @property
    def interrupted(self) -> bool:
        """Whether at least one SIGINT/SIGTERM was latched."""
        return self.count > 0


def _on_main_thread() -> bool:
    return threading.current_thread() is threading.main_thread()


@contextlib.contextmanager
def interrupt_shield() -> Iterator[InterruptLatch]:
    """Latch SIGINT/SIGTERM instead of raising, for critical sections.

    The pool parent uses this around result draining, worker
    teardown, and the final manifest flush: a second ctrl-C (or a
    scheduler SIGTERM racing the drain) is *recorded* on the returned
    latch — callers poll :attr:`InterruptLatch.interrupted` to cut the
    drain short — but can no longer skip the checkpoint writes that make
    exit 130 resumable.  Off the main thread (where Python forbids
    signal handlers) the shield is a no-op latch.
    """
    latch = InterruptLatch()
    if not _on_main_thread():
        yield latch
        return

    def _handler(signum: int, frame: Any) -> None:
        latch.count += 1
        latch.signals.append(signum)

    previous: dict[int, Any] = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _handler)
        except (ValueError, OSError):  # pragma: no cover - exotic hosts
            pass
    try:
        yield latch
    finally:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass


@contextlib.contextmanager
def sigterm_as_interrupt() -> Iterator[None]:
    """Deliver SIGTERM as :class:`KeyboardInterrupt` for the duration.

    The CLI wraps its experiment loop in it and the worker pool wraps
    every run, so a scheduler kill checkpoints exactly like ctrl-C; the
    previous handler is restored on exit.  No-op off the main thread.
    """
    if not _on_main_thread():
        yield
        return

    def _handler(signum: int, frame: Any) -> None:
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, _handler)
    except (ValueError, OSError):  # pragma: no cover - exotic hosts
        yield
        return
    try:
        yield
    finally:
        try:
            signal.signal(signal.SIGTERM, previous)
        except (ValueError, OSError):  # pragma: no cover
            pass
