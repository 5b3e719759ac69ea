"""Supervised, crash-safe, resumable experiment execution.

Every experiment module exposes a ``trial_plan(**kwargs)`` hook that
enumerates its work as independent, deterministic trials plus a
``finalize`` step that assembles the module's result object.  This
module executes such a plan under supervision:

* **Containment** — :func:`run_guarded_trials` runs each trial inside a
  catch boundary: a transient fault (a chaos-injected drop, an unhealthy
  calibration, a lost submission) fails that trial, not the figure, and
  a fault that fired without being acknowledged fails a green trial.
  Only a shortfall below the plan's success floor aborts the
  experiment — never a silently thinner figure.
* **Checkpointing** — with a run directory, every finished trial is
  journaled (pickled payload + JSONL record, all atomic) before the next
  trial starts; :func:`run_experiment` with ``resume=True`` replays the
  journal, validates the manifest's config hash, skips completed trials,
  and continues.  Because each trial derives its randomness only from
  the run seed and its own key (never from execution order), a resumed
  run produces results identical to an uninterrupted one.
* **Watchdog** — a soft wall-clock deadline: when the remaining budget
  drops below the longest trial seen so far, the run checkpoints and
  stops cleanly with :data:`EXIT_DEADLINE` instead of being killed
  mid-trial by an external timeout.
* **Circuit breaker** — after ``failure_threshold`` *consecutive*
  contained failures the breaker opens and trials are skipped for
  ``cooldown_trials``; then one half-open probe trial runs.  Success
  closes the breaker, failure re-opens it.  A persistently broken
  environment thus burns a bounded number of trials and the run degrades
  to a partial-but-valid artifact (still subject to the plan's success
  floor).  Every transition is recorded in the run manifest.

Exit codes (also used by ``python -m repro.experiments``):

====================  =====================================================
:data:`EXIT_OK` (0)            artifact produced
``1``                          unexpected error (programming bug)
``2``                          command-line usage error (argparse)
:data:`EXIT_INSUFFICIENT` (3)  fewer successes than the plan's floor
:data:`EXIT_REPRO` (4)         a :class:`~repro.errors.ReproError` outside
                               trial containment (e.g. during finalize)
:data:`EXIT_CONFIG_MISMATCH` (5)  ``--resume`` config hash mismatch
:data:`EXIT_INVARIANT` (6)     a runtime invariant tripped: model state
                               (or pool bookkeeping) untrusted
:data:`EXIT_POISONED` (8)      the worker pool quarantined poison trials
                               (they repeatedly killed their workers);
                               the rest of the artifact is journaled
:data:`EXIT_OVERLOAD` (9)      the always-on service (``repro.service``)
                               finished degraded: the overload controller
                               opened the admission circuit and the
                               completion floor was missed — offered load
                               exceeded what the fleet could serve
:data:`EXIT_DEADLINE` (75)     soft deadline hit after checkpointing
                               (EX_TEMPFAIL: re-run with ``--resume``)
:data:`EXIT_INTERRUPTED` (130) SIGINT/SIGTERM after checkpointing
                               (re-run with ``--resume``)
====================  =====================================================
"""

from __future__ import annotations

import contextlib
import enum
import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro.errors import (
    CheckpointError,
    InsufficientTrialsError,
    InvariantViolation,
    ReproError,
    ResumeMismatchError,
    UnhandledFaultError,
)
from repro.experiments.checkpoint import (
    STATUS_COMPLETED,
    STATUS_DEADLINE,
    STATUS_FAILED,
    STATUS_INSUFFICIENT,
    STATUS_INTERRUPTED,
    STATUS_INVARIANT,
    STATUS_POISONED,
    STATUS_RUNNING,
    CheckpointJournal,
    RunManifest,
    config_hash,
    dumps_payload,
    fault_plan_id,
    git_describe,
    loads_payload,
)

EXIT_OK = 0
EXIT_INSUFFICIENT = 3
EXIT_REPRO = 4
EXIT_CONFIG_MISMATCH = 5
EXIT_INVARIANT = 6  # a runtime invariant tripped: model state untrusted
EXIT_POISONED = 8  # pool quarantined worker-killing trials; rest journaled
EXIT_OVERLOAD = 9  # service finished overloaded: circuit open, floor missed
EXIT_DEADLINE = 75  # EX_TEMPFAIL: partial, resumable
EXIT_INTERRUPTED = 130  # 128 + SIGINT, conventionally

_STATUS_EXIT = {
    STATUS_COMPLETED: EXIT_OK,
    STATUS_INSUFFICIENT: EXIT_INSUFFICIENT,
    STATUS_FAILED: EXIT_REPRO,
    STATUS_INVARIANT: EXIT_INVARIANT,
    STATUS_POISONED: EXIT_POISONED,
    STATUS_DEADLINE: EXIT_DEADLINE,
    STATUS_INTERRUPTED: EXIT_INTERRUPTED,
}

#: The watchdog's stop reason and the breaker's skip reason.
STOP_DEADLINE = "deadline"
SKIP_BREAKER = "breaker-open"

# ----------------------------------------------------------------------
# The sanctioned host clock
# ----------------------------------------------------------------------
# This module is the single place in ``repro`` allowed to read the host
# clock (enforced by the DET002 lint rule): manifests, watchdogs, and
# CLI timing all route through these two helpers, so tests can stamp
# deterministic timestamps by overriding them.
_wall_clock: Callable[[], float] = time.time
_monotonic_clock: Callable[[], float] = time.monotonic


def wall_clock() -> float:
    """Seconds since the epoch, via the injectable host clock."""
    return _wall_clock()


def monotonic_clock() -> float:
    """Monotonic seconds, via the injectable host clock."""
    return _monotonic_clock()


@contextlib.contextmanager
def override_clocks(
    wall: Callable[[], float] | None = None,
    monotonic: Callable[[], float] | None = None,
) -> Iterator[None]:
    """Temporarily replace the host clocks (tests only).

    Everything that stamps wall time (manifest segments, CLI timing) or
    measures elapsed time (watchdog, trial durations) observes the
    override, so a test can produce byte-identical manifests::

        with override_clocks(wall=lambda: 0.0):
            manifest.add_segment("start")   # {"time": 0.0, ...}
    """
    global _wall_clock, _monotonic_clock
    previous = (_wall_clock, _monotonic_clock)
    if wall is not None:
        _wall_clock = wall
    if monotonic is not None:
        _monotonic_clock = monotonic
    try:
        yield
    finally:
        _wall_clock, _monotonic_clock = previous


# ----------------------------------------------------------------------
# The executing process's context
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerContext:
    """What a trial can learn about the process executing it."""

    fault_injector: Any = None


_WORKER_CONTEXT: WorkerContext | None = None


@contextlib.contextmanager
def worker_context(context: WorkerContext) -> Iterator[None]:
    """Install *context* for the trials run inside the block."""
    global _WORKER_CONTEXT
    previous = _WORKER_CONTEXT
    # Intentional per-process singleton: installed around a batch of
    # trials and only ever read by current_fault_injector() —
    # divergence across pool workers is the point, each worker must
    # see its *own* injector.
    _WORKER_CONTEXT = context  # repro-lint: ignore[PAR101]
    try:
        yield
    finally:
        _WORKER_CONTEXT = previous  # repro-lint: ignore[PAR101]


def current_fault_injector() -> Any:
    """The executing process's
    :class:`~repro.faults.injector.FaultInjector` (built from
    ``plan.fault_plan`` by the serial loop and by each pool worker), or
    ``None`` outside a run / without a plan.

    Trial code that fires chaos faults uses this instead of a
    closed-over injector, so the fired-versus-acknowledged audit of
    :func:`run_guarded_trials` covers the process that fired the fault.
    """
    return _WORKER_CONTEXT.fault_injector if _WORKER_CONTEXT else None


# ----------------------------------------------------------------------
# Per-trial containment
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GuardedRun:
    """How a guarded trial batch ended."""

    #: Why the batch halted early ("" when it ran to the end; otherwise
    #: whatever *stop* returned).
    stop_reason: str = ""
    #: Trials left unrun by the stop.
    skipped: int = 0


def run_guarded_trials(
    trials: Sequence[Callable[[], Any]],
    catch: tuple[type[Exception], ...] = (ReproError,),
    skip_trial: Callable[[int], str | None] | None = None,
    stop: Callable[[], str | None] | None = None,
    on_trial_end: Callable[[int, Any, Exception | None, float], None] | None = None,
) -> GuardedRun:
    """Run *trials* (zero-argument callables), containing failures.

    Exceptions matching *catch* fail their trial; anything else
    propagates (a programming error should still crash).  Regardless of
    *catch*, :class:`~repro.errors.InvariantViolation` always
    propagates: a tripped invariant means the model state (and
    therefore every subsequent trial) can no longer be trusted, so it
    must surface as a distinct run outcome rather than a contained
    per-trial failure.

    After each *successful* trial the :func:`current_fault_injector`'s
    fired-versus-acknowledged ledger is audited over the trial's
    window: a fault that fired with no matching
    :meth:`~repro.faults.injector.FaultInjector.acknowledge` — and no
    invariant trip — turns the green trial into an
    :class:`~repro.errors.UnhandledFaultError` failure.  Injected faults
    are either handled or detected, never absorbed silently.

    Supervision hooks (all optional):

    *stop()* — checked before each trial; a non-``None`` reason halts
    the batch, lands in ``stop_reason``, and counts the remaining
    trials in ``skipped``.

    *skip_trial(index)* — return a reason string to bypass that trial
    without executing it, or ``None`` to run it.

    *on_trial_end(index, result, error, elapsed_s)* — called after each
    executed trial with either its result (``error is None``) or the
    exception that failed it (``result is None``), plus its wall time.
    Exceptions it raises propagate — a checkpoint that cannot be
    written must not be ignored.
    """
    injector = current_fault_injector()
    for index, trial in enumerate(trials):
        if stop is not None:
            reason = stop()
            if reason:
                return GuardedRun(stop_reason=reason, skipped=len(trials) - index)
        if skip_trial is not None and skip_trial(index):
            continue
        if injector is not None:
            fired_before = dict(injector.fired_by_site)
            handled_before = dict(injector.handled_by_site)
        trial_start = monotonic_clock()
        error: Exception | None = None
        try:
            result = trial()
        except InvariantViolation:
            raise
        except catch as exc:
            result, error = None, exc
        elapsed = monotonic_clock() - trial_start
        if error is None and injector is not None:
            gaps = injector.unacknowledged(fired_before, handled_before)
            if gaps:
                result, error = None, UnhandledFaultError(unacknowledged=gaps)
        if on_trial_end is not None:
            on_trial_end(index, result, error, elapsed)
    return GuardedRun()


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrialSpec:
    """One independent unit of experiment work.

    *key* must be stable across processes (it addresses the checkpoint),
    and *fn* must be deterministic given the plan configuration — its
    randomness may depend on the run seed and the key, never on how many
    trials ran before it.
    """

    key: str
    fn: Callable[[], Any]


@dataclass(frozen=True)
class ExperimentPlan:
    """An experiment decomposed into checkpointable trials.

    *finalize* receives an ordered ``{key: result}`` of the successful
    trials (plan order, failures absent) and builds the module's result
    object; it should raise :class:`InsufficientTrialsError` when the
    surviving trials cannot support a valid artifact.
    """

    name: str
    seed: int
    config: dict[str, Any]
    trials: tuple[TrialSpec, ...]
    finalize: Callable[[dict[str, Any]], Any]
    min_successes: int = 1
    fault_plan: Any = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "trials", tuple(self.trials))
        if self.min_successes < 0:
            raise ValueError(
                f"min_successes must be >= 0, got {self.min_successes}"
            )
        keys = [t.key for t in self.trials]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise ValueError(f"duplicate trial keys in plan {self.name}: {dupes}")

    @property
    def hash(self) -> str:
        """Hash of the configuration (what ``--resume`` validates)."""
        return config_hash(self.config)


def spawn_trial_seed(run_seed: int, key: str) -> int:
    """A per-trial 63-bit seed derived from the run seed and trial key.

    Order-independent by construction: trial RNG streams are identical
    whether the sweep runs uninterrupted or resumes after a crash.
    """
    digest = hashlib.sha256(f"{run_seed}:{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# ----------------------------------------------------------------------
# Supervision: watchdog + circuit breaker
# ----------------------------------------------------------------------
class Watchdog:
    """Soft wall-clock deadline for a trial batch.

    Rather than letting an external timeout SIGKILL the process mid-trial
    (losing the in-flight trial and risking whatever the journal was
    about to write), the watchdog stops the batch while there is still
    time: once the remaining budget is smaller than the longest completed
    trial, the next trial is assumed not to fit.
    """

    def __init__(self, budget_s: float | None) -> None:
        if budget_s is not None and budget_s <= 0:
            raise ValueError(f"deadline must be positive or None, got {budget_s}")
        self.budget_s = budget_s
        self._start = monotonic_clock()
        self._longest_trial_s = 0.0

    def note_trial(self, elapsed_s: float) -> None:
        """Record one trial's duration (sets the stop margin)."""
        self._longest_trial_s = max(self._longest_trial_s, elapsed_s)

    def check(self) -> str | None:
        """A stop reason when the budget nears exhaustion, else ``None``."""
        if self.budget_s is None:
            return None
        remaining = self.budget_s - (monotonic_clock() - self._start)
        if remaining <= self._longest_trial_s:
            return STOP_DEADLINE
        return None


class BreakerState(str, enum.Enum):
    """Circuit-breaker states (classic closed/open/half-open)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass
class BreakerConfig:
    """Circuit-breaker tuning."""

    failure_threshold: int = 3
    cooldown_trials: int = 2

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.cooldown_trials < 1:
            raise ValueError(
                f"cooldown_trials must be >= 1, got {self.cooldown_trials}"
            )


class CircuitBreaker:
    """Consecutive-failure circuit breaker over a trial sequence.

    ``CLOSED`` runs everything.  *failure_threshold* consecutive
    contained failures open the breaker; while ``OPEN`` the next
    *cooldown_trials* trials are skipped (they would almost certainly
    burn budget on the same broken environment), then the breaker goes
    ``HALF_OPEN`` and lets one probe trial through.  A successful probe
    closes the breaker; a failed probe re-opens it for another cooldown.
    """

    def __init__(self, config: BreakerConfig | None = None) -> None:
        self.config = config or BreakerConfig()
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.skipped = 0
        self.events: list[dict[str, Any]] = []
        self._cooldown_left = 0

    def _transition(self, index: int, state: BreakerState, reason: str) -> None:
        self.events.append(
            {
                "trial": index,
                "from": self.state.value,
                "to": state.value,
                "reason": reason,
            }
        )
        self.state = state

    def gate(self, index: int) -> str | None:
        """Skip reason for trial *index*, or ``None`` to run it."""
        if self.state is BreakerState.OPEN:
            if self._cooldown_left > 0:
                self._cooldown_left -= 1
                self.skipped += 1
                return SKIP_BREAKER
            self._transition(
                index, BreakerState.HALF_OPEN, "cooldown elapsed; probing"
            )
        return None

    def record(self, index: int, success: bool) -> None:
        """Feed one executed trial's outcome into the breaker."""
        if success:
            if self.state is BreakerState.HALF_OPEN:
                self._transition(index, BreakerState.CLOSED, "probe succeeded")
            self.consecutive_failures = 0
            return
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self._transition(index, BreakerState.OPEN, "probe failed")
            self._cooldown_left = self.config.cooldown_trials
        elif (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.config.failure_threshold
        ):
            self._transition(
                index,
                BreakerState.OPEN,
                f"{self.consecutive_failures} consecutive failures",
            )
            self._cooldown_left = self.config.cooldown_trials


# ----------------------------------------------------------------------
# The supervised run
# ----------------------------------------------------------------------
@dataclass
class RunOutcome:
    """Everything a caller (CLI or test) needs about one supervised run."""

    plan: ExperimentPlan
    status: str
    result: Any = None
    error: Exception | None = None
    run_dir: Path | None = None
    manifest: RunManifest | None = None
    completed: int = 0
    failed: int = 0
    resumed: int = 0
    skipped: int = 0
    breaker_events: list[dict[str, Any]] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: Pool-executor telemetry (respawns, plan reuses, degradation,
    #: poisoned trial keys) — in-memory only, ``None`` off the pool path.
    pool: dict[str, Any] | None = None

    @property
    def exit_code(self) -> int:
        """The documented process exit code for this outcome."""
        return _STATUS_EXIT.get(self.status, 1)

    @property
    def resumable(self) -> bool:
        """Whether ``--resume`` on the run directory would make progress."""
        return self.run_dir is not None and self.status in (
            STATUS_DEADLINE,
            STATUS_INTERRUPTED,
        )

    def require_result(self) -> Any:
        """The finalized result, re-raising the captured failure mode.

        :func:`execute_plan` returns through it, so an in-memory run
        raises its error and propagates its interrupt.
        """
        if self.status == STATUS_COMPLETED:
            return self.result
        if self.status == STATUS_INTERRUPTED:
            raise KeyboardInterrupt
        if self.error is not None:
            raise self.error
        raise ReproError(
            f"{self.plan.name}: run ended with status {self.status!r} "
            "and no result"
        )


class RunLedger:
    """The bookkeeping of one supervised run, shared by every executor.

    Holds every outcome, resumed or live, in one map of pickled results
    and one of failures, plus the run's one circuit breaker and the
    stop-skip count; writes every finished trial through to the checkpoint
    journal before the next one starts; and ends the run by stamping
    the manifest (:meth:`finish`), after applying the plan's success
    floor and ``finalize`` over results unpickled from those bytes
    (:meth:`conclude`).  The serial loop (:func:`run_trials`), the
    pool's degraded path and the pool parent all record through one
    ledger, so journals, manifests and artifacts cannot drift apart.
    """

    def __init__(
        self,
        plan: ExperimentPlan,
        run_dir: str | Path | None = None,
        resume: bool = False,
        deadline_s: float | None = None,
        breaker: BreakerConfig | None = None,
    ) -> None:
        self.started = monotonic_clock()
        self.plan = plan
        self.run_dir = None if run_dir is None else Path(run_dir)
        self.manifest: RunManifest | None = None
        self.journal: CheckpointJournal | None = None
        #: key -> the trial's pickled result, exactly as journaled.
        self.results: dict[str, bytes] = {}
        #: key -> ``(index, error type name, message)``.
        self.failures: dict[str, tuple[int, str, str]] = {}
        #: Successes inherited from the journal of an earlier segment.
        self.resumed = 0
        if self.run_dir is not None:
            self._open_checkpoint(self.run_dir, resume)
        self.watchdog = Watchdog(deadline_s)
        #: index -> wall seconds of every trial recorded by this segment.
        self.trial_seconds: dict[int, float] = {}
        #: The run's breaker: gated and fed by whichever loop runs trials.
        self.circuit = CircuitBreaker(breaker)
        #: Trials a stop left unrun (skipped only if it was the deadline).
        self.stop_skips = 0

    def _open_checkpoint(self, run_dir: Path, resume: bool) -> None:
        """Open (or resume) the checkpointed state of *run_dir* and stamp
        the manifest ``running``."""
        plan = self.plan
        if resume:
            manifest = RunManifest.load(run_dir)
            if manifest.experiment != plan.name:
                raise ResumeMismatchError(
                    f"run dir {run_dir} holds experiment "
                    f"{manifest.experiment!r}, not {plan.name!r}"
                )
            if manifest.config_hash != plan.hash:
                raise ResumeMismatchError(
                    f"config hash mismatch resuming {run_dir}: manifest "
                    f"{manifest.config_hash[:12]}…, plan {plan.hash[:12]}… — "
                    "rerun with the original parameters or start a new run dir",
                    expected=manifest.config_hash,
                    actual=plan.hash,
                )
            journal = CheckpointJournal.load(run_dir)
            for entry in journal.entries():
                if entry.ok:
                    self.results[entry.key] = journal.read_payload(entry.key)
                    self.resumed += 1
                else:
                    # A journaled failure is not retried: trials are
                    # deterministic, so it would fail identically and a
                    # resumed run must mirror the uninterrupted one.
                    self.failures[entry.key] = (
                        entry.index, entry.error_type or "", entry.error or ""
                    )
            manifest.add_segment("resume")
        else:
            if (run_dir / "manifest.json").exists():
                raise CheckpointError(
                    f"{run_dir} already holds a run; pass resume=True "
                    "(--resume) to continue it or choose a fresh directory"
                )
            manifest = RunManifest(
                experiment=plan.name,
                seed=plan.seed,
                config=plan.config,
                config_hash=plan.hash,
                fault_plan=fault_plan_id(plan.fault_plan),
                git_describe=git_describe(),
                trials_total=len(plan.trials),
            )
            manifest.add_segment("start")
            journal = CheckpointJournal(run_dir)
        manifest.status = STATUS_RUNNING
        manifest.trials_total = len(plan.trials)
        manifest.save(run_dir)
        self.manifest, self.journal = manifest, journal

    def pending(self) -> list[int]:
        """Plan indices with no resumed or recorded outcome yet."""
        done = self.results.keys() | self.failures.keys()
        return [
            index
            for index, spec in enumerate(self.plan.trials)
            if spec.key not in done
        ]

    def record(
        self,
        index: int,
        elapsed_s: float,
        payload: bytes | None = None,
        error: tuple[str, str] | None = None,
    ) -> None:
        """Journal one finished trial: its *payload* (the result, pickled
        where the trial ran), or its *error* as ``(type name, message)``
        — the forms both take across a process boundary."""
        key = self.plan.trials[index].key
        self.watchdog.note_trial(elapsed_s)
        self.trial_seconds[index] = elapsed_s
        if error is None:
            self.results[key] = payload
            if self.journal is not None:
                self.journal.record_success(
                    index, key, payload, elapsed_s=elapsed_s
                )
        else:
            error_type, message = error
            self.failures[key] = (index, error_type, message)
            if self.journal is not None:
                self.journal.record_failure_info(
                    index, key, error_type, message, elapsed_s=elapsed_s
                )

    def successes(self) -> dict[str, Any]:
        """Successful results keyed by trial key, in plan order, each
        unpickled once from its bytes."""
        return {
            spec.key: loads_payload(self.results[spec.key], spec.key)
            for spec in self.plan.trials
            if spec.key in self.results
        }

    @property
    def failed(self) -> int:
        """Contained failures, resumed included."""
        return len(self.failures)

    def finish(
        self,
        status: str,
        result: Any = None,
        error: Exception | None = None,
        pool: dict[str, Any] | None = None,
    ) -> RunOutcome:
        """End the run with *status*: stamp and save the manifest, and
        return the :class:`RunOutcome` (*pool* is the pool's telemetry)."""
        # Trials a stop abandoned count as skipped only for a deadline.
        skipped = self.circuit.skipped + (
            self.stop_skips if status == STATUS_DEADLINE else 0
        )
        outcome = RunOutcome(
            plan=self.plan,
            status=status,
            result=result,
            error=error,
            run_dir=self.run_dir,
            manifest=self.manifest,
            completed=len(self.results),
            failed=self.failed,
            resumed=self.resumed,
            skipped=skipped,
            breaker_events=list(self.circuit.events),
            elapsed_s=monotonic_clock() - self.started,
            pool=pool,
        )
        if self.manifest is not None:
            self.manifest.status = status
            self.manifest.completed = outcome.completed
            self.manifest.failed = outcome.failed
            self.manifest.resumed = outcome.resumed
            self.manifest.skipped = outcome.skipped
            self.manifest.exit_code = outcome.exit_code
            self.manifest.breaker_events = list(self.circuit.events)
            self.manifest.breaker_state = self.circuit.state.value
            if pool is not None:
                self.manifest.poisoned = list(pool["poisoned"])
            self.manifest.save(self.run_dir)
        return outcome

    def conclude(self, pool: dict[str, Any] | None = None) -> RunOutcome:
        """Finish a run whose trials all ran: enforce
        ``plan.min_successes`` over the merged results, then finalize."""
        plan = self.plan
        if len(self.results) < plan.min_successes:
            detail = "; ".join(
                f"trial {index}: {name}: {message}"
                for index, name, message in sorted(self.failures.values())[:3]
            )
            error: Exception = InsufficientTrialsError(
                f"{plan.name}: {len(self.results)}/{len(plan.trials)} trials "
                f"succeeded (needed {plan.min_successes}; {self.failed} "
                f"failed, {self.circuit.skipped} breaker-skipped)"
                f"{': ' + detail if detail else ''}"
            )
            return self.finish(STATUS_INSUFFICIENT, error=error, pool=pool)
        try:
            result = plan.finalize(self.successes())
        except InsufficientTrialsError as exc:
            return self.finish(STATUS_INSUFFICIENT, error=exc, pool=pool)
        except InvariantViolation as exc:
            return self.finish(STATUS_INVARIANT, error=exc, pool=pool)
        except ReproError as exc:
            return self.finish(STATUS_FAILED, error=exc, pool=pool)
        return self.finish(STATUS_COMPLETED, result=result, pool=pool)


def run_trials(
    ledger: RunLedger,
    indices: Sequence[int],
    catch: tuple[type[Exception], ...],
) -> tuple[str | None, Exception | None]:
    """The serial loop: run the trials at *indices* in order, in this
    process, gated by and recording each through *ledger* (its circuit
    breaker, watchdog and journal).

    The plan's fault injector (built from ``plan.fault_plan``) is
    installed as :func:`current_fault_injector` for the trials and
    audited after each.  Returns ``(status, error)``: a status when an
    interrupt, a tripped invariant or the ledger's deadline stopped the
    loop, ``(None, None)`` when every index ran or was breaker-skipped.
    """
    plan = ledger.plan
    circuit = ledger.circuit
    injector = (
        plan.fault_plan.build_injector() if plan.fault_plan is not None else None
    )

    def on_trial_end(
        local: int, result: Any, error: Exception | None, elapsed_s: float
    ) -> None:
        index = indices[local]
        circuit.record(index, error is None)
        ledger.record(
            index,
            elapsed_s,
            dumps_payload(result) if error is None else None,
            None if error is None else (type(error).__name__, str(error)),
        )

    try:
        with worker_context(WorkerContext(fault_injector=injector)):
            guarded = run_guarded_trials(
                [plan.trials[index].fn for index in indices],
                catch,
                skip_trial=lambda local: circuit.gate(indices[local]),
                stop=ledger.watchdog.check,
                on_trial_end=on_trial_end,
            )
    except KeyboardInterrupt:
        # Everything up to the interrupted trial is already journaled.
        return STATUS_INTERRUPTED, None
    except InvariantViolation as exc:
        # A tripped invariant is never a per-trial failure: the model
        # state (and any further trials) can no longer be trusted.
        return STATUS_INVARIANT, exc
    if guarded.stop_reason:
        ledger.stop_skips += guarded.skipped
        return STATUS_DEADLINE, None
    return None, None


def run_experiment(
    plan: ExperimentPlan,
    run_dir: str | Path | None = None,
    resume: bool = False,
    deadline_s: float | None = None,
    breaker: BreakerConfig | None = None,
    catch: tuple[type[Exception], ...] = (ReproError,),
    workers: int = 1,
    plan_source: Callable[[], ExperimentPlan] | None = None,
) -> RunOutcome:
    """Execute *plan* under supervision; never raises for expected
    failure modes (they land in the returned :class:`RunOutcome`).

    With *run_dir*, the run is checkpointed and (with ``resume=True``)
    continued from a previous segment.  Without it, the run is in-memory
    only — same loop, no persistence.

    With ``workers > 1`` the plan's trials run on the supervised worker
    pool (:mod:`repro.experiments.pool`); *plan_source* must then be the
    picklable recipe the workers rebuild the plan from,
    ``functools.partial(module.trial_plan, **overrides)``.  A parallel
    run is observation-equivalent to this serial loop: same journal,
    same manifest, same finalized artifact (see ``docs/parallel.md``).
    *workers* alone decides where trials run: N worker processes on any
    host, except that fewer than two pending trials, or a pool that
    spent its respawn budget, run inline in this process.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > 1:
        from repro.experiments.pool import get_pool

        return get_pool(workers).run(
            plan,
            plan_source=plan_source,
            run_dir=run_dir,
            resume=resume,
            deadline_s=deadline_s,
            breaker=breaker,
            catch=catch,
        )

    ledger = RunLedger(plan, run_dir, resume, deadline_s, breaker)
    status, error = run_trials(ledger, ledger.pending(), catch)
    if status is not None:
        return ledger.finish(status, error=error)
    return ledger.conclude()


def execute_plan(plan: ExperimentPlan, **supervision: Any) -> Any:
    """Run *plan* in memory and return the finalized result.

    Callers run an experiment as ``execute_plan(module.trial_plan(...))``,
    so *every* experiment — CLI or direct call — flows through the same
    guarded loop.  Failure modes raise exactly as they would have before
    the runner existed (see :meth:`RunOutcome.require_result`).
    """
    return run_experiment(plan, **supervision).require_result()


def require_all(
    results: dict[str, Any], keys: Sequence[str], label: str
) -> list[Any]:
    """Finalize helper for strict plans: every key must have succeeded.

    Returns the results in *keys* order, or raises
    :class:`InsufficientTrialsError` naming the missing trials — the
    strict-module equivalent of "never a silently thinner figure".
    """
    missing = [key for key in keys if key not in results]
    if missing:
        raise InsufficientTrialsError(
            f"{label}: {len(missing)} required trial(s) failed or were "
            f"skipped: {', '.join(missing[:5])}"
            f"{'…' if len(missing) > 5 else ''}"
        )
    return [results[key] for key in keys]
