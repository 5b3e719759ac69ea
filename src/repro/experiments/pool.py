"""Self-healing persistent worker pool for experiment plans.

Every DSAssassin artifact is a sweep of independent, deterministic
trials (a trial's randomness derives from the run seed and its own key,
never from execution order).  This module runs such an
:class:`~repro.experiments.runner.ExperimentPlan` across worker
processes while staying *observation equivalent* to the serial loop in
:func:`~repro.experiments.runner.run_experiment`, and without paying
interpreter start + plan rebuild on every run:

* **Persistent fork-server workers** — one long-lived process per pool
  slot (``forkserver`` start method, ``spawn`` fallback), reused across
  runs.  A worker rebuilds the plan from its recipe,
  ``functools.partial(module.trial_plan, **overrides)``, once per
  distinct plan fingerprint and caches it, so repeated runs of the same
  experiment pay near-zero startup.
* **Results over the worker's pipe** — each worker replies on the same
  duplex ``multiprocessing`` pipe the parent sends it commands on, one
  pickle per message (a trial result rides in it as the bytes the
  worker pickled).  A message that does not unpickle is a detected
  failure (:class:`~repro.errors.PoolProtocolError`), never silently
  parsed, and a closed pipe is a failed worker; either way the worker
  is killed and its unacknowledged trials requeued.
* **Supervision** — each worker reports every trial start on its pipe,
  ahead of the trial's result, and any message of the current run counts
  as a sign of life.  The parent turns a worker that holds a shard but
  has gone silent ``suspect``, SIGKILLs it past the hang deadline
  (``max(floor, factor × longest trial)`` — the PR-2 watchdog discipline
  applied to liveness), respawns crashed workers under capped
  exponential backoff, and requeues their unacknowledged trials.  A
  trial that repeatedly takes workers down is quarantined to the
  manifest's ``poisoned`` list (exit code 8) instead of wedging the run.
* **One path rule** — :meth:`WorkerPool.run` pools unless fewer than
  two trials are pending or the pool is marked broken (its respawn
  budget ran out); then the trials run *inline* in the parent through
  :func:`~repro.experiments.runner.run_trials` on the run's
  :class:`~repro.experiments.runner.RunLedger` — byte-identical to the
  serial loop, because it is the serial loop.

Equivalence contract: a pool run's journal, manifest, and finalized
artifact are byte-identical to a serial run's (every trial result is
recorded through the same ledger as the same pickled bytes, journal
entries iterate in plan-index order, manifests carry the same counts),
and ``--resume`` works across worker-count changes *and* across a pool
restart (the journal is addressed by trial key).  See
``docs/parallel.md`` for the supervision state machine and
``tests/chaos/test_pool_fault_matrix.py`` for the pool chaos matrix
(:data:`~repro.faults.sites.POOL_SITES`).
"""

from __future__ import annotations

import atexit
import collections
import contextlib
import hashlib
import multiprocessing
import os
import pickle
import signal
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.errors import (
    ConfigurationError,
    InvariantViolation,
    PoolError,
    PoolProtocolError,
    ReproError,
)
from repro.experiments.checkpoint import (
    STATUS_DEADLINE,
    STATUS_INTERRUPTED,
    STATUS_INVARIANT,
    STATUS_POISONED,
    dumps_payload,
)
from repro.experiments.runner import (
    STOP_DEADLINE,
    BreakerConfig,
    CircuitBreaker,
    ExperimentPlan,
    RunLedger,
    RunOutcome,
    WorkerContext,
    monotonic_clock,
    run_guarded_trials,
    run_trials,
    worker_context,
)
from repro.experiments.supervisor import (
    DEGRADED_SERIAL,
    PoisonLedger,
    PoolConfig,
    RespawnBackoff,
    WorkerState,
    interrupt_shield,
    sigterm_as_interrupt,
)
from repro.faults.plan import FaultSite
from repro.faults.sites import POOL_SITES
from repro.invariants.pool import PoolStateChecker

__all__ = [
    "WorkerPool",
    "get_pool",
    "shard_interleave",
    "shutdown_pools",
]

#: Supervision loop cadence (parent) / command poll cadence (worker).
_POLL_S = 0.02

#: How long a worker may sit in ``SPAWNING`` before it is failed.
_SPAWN_TIMEOUT_S = 60.0
#: Respawn backoff of one worker slot: ``min(base × 2^attempt, cap)`` s.
_RESPAWN_BASE_S = 0.05
_RESPAWN_CAP_S = 2.0
#: Worker-kill strikes before a trial key is quarantined.
_POISON_THRESHOLD = 2
#: How long an aborting parent keeps draining finished results.
_DRAIN_S = 30.0
#: Ceiling on a POOL_WORKER_STALL fault when the spec carries no
#: magnitude (so an undetected stall cannot wedge a worker forever).
_STALL_CAP_S = 120.0

#: The pseudo worker id the degraded-serial inline path reports to the
#: pool-state checker (it is "the parent executing trials itself").
_INLINE_WORKER = -1

# Worker -> parent message tags (pickles sent back over the worker's pipe).
_MSG_STARTED = "pool-started"
_MSG_TRIAL = "pool-trial"
_MSG_RUN_READY = "pool-run-ready"
_MSG_RUN_ERROR = "pool-run-error"
_MSG_SHARD_DONE = "pool-shard-done"
_MSG_INVARIANT = "pool-invariant"
_MSG_INTERRUPTED = "pool-interrupted"
_MSG_CRASHED = "pool-crashed"

#: Guard ``stop`` reason inside workers when the parent trips the shared
#: stop event (deadline, invariant elsewhere, interrupt).
_STOP_POOL = "pool-stop"

#: Hash seed pinned into worker interpreters (when the parent has none),
#: so workers never diverge on ``hash()``-dependent iteration that a
#: DET003 gap might let slip through.
_PINNED_HASH_SEED = "0"


def shard_interleave(indices: Sequence[int], workers: int) -> list[list[int]]:
    """Round-robin partition: shard *w* gets ``indices[w::workers]``.

    Heterogeneous trial costs (e.g. fig09's window sweep, where small
    bit windows run longer) spread evenly across shards.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return [list(indices[w::workers]) for w in range(workers)]


def _rebuild_violation(
    payload: bytes | None, summary: dict[str, Any]
) -> InvariantViolation:
    """The worker's violation, unpickled — or reconstructed from its
    summary fields when the full object cannot cross the process
    boundary (e.g. an unpicklable snapshot value)."""
    if payload is not None:
        try:
            exc = pickle.loads(payload)
            if isinstance(exc, InvariantViolation):
                return exc
        except (pickle.UnpicklingError, TypeError, AttributeError,
                EOFError, ImportError):
            pass
    return InvariantViolation(
        message=summary.get("message", ""),
        invariant=summary.get("invariant", ""),
        seed=summary.get("seed"),
        repro=summary.get("repro", ""),
    )


def _decode(blob: bytes) -> tuple:
    """One worker message, unpickled.  Bytes that do not unpickle are a
    detected failure (:class:`~repro.errors.PoolProtocolError`), never
    silently parsed."""
    try:
        return pickle.loads(blob)
    # Worker bytes may be hostile garbage; unpicklable == corrupt.
    except Exception as exc:  # repro-lint: ignore[EXC001]
        raise PoolProtocolError(f"unpicklable frame: {exc}") from exc


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _WorkerRun:
    """Worker-local state for one accepted ``run`` command."""

    def __init__(
        self,
        run_id: int,
        plan: ExperimentPlan,
        injector: Any,
        circuit: CircuitBreaker,
        catch: tuple[type[Exception], ...],
    ) -> None:
        self.run_id = run_id
        self.plan = plan
        self.injector = injector
        self.circuit = circuit
        self.catch = catch
        # Delta markers so each shard-done reports only its own breaker
        # activity (the worker-level circuit spans shards of one run).
        self.events_sent = 0
        self.skipped_sent = 0

    def shard_summary(self, stop_skipped: int) -> dict[str, Any]:
        events = self.circuit.events[self.events_sent:]
        self.events_sent = len(self.circuit.events)
        skipped = self.circuit.skipped - self.skipped_sent
        self.skipped_sent = self.circuit.skipped
        return {
            "stop_skipped": stop_skipped,
            "breaker_skipped": skipped,
            "breaker_events": list(events),
            "breaker_state": self.circuit.state.value,
        }


def _worker_begin_run(
    command: tuple,
    plans: dict[str, ExperimentPlan],
    worker_id: int,
    send: Callable[..., None],
) -> "_WorkerRun | None":
    """Handle a ``run`` command: (re)build the plan, arm the injector."""
    _, run_id, fingerprint, source_blob, expected_hash, breaker, catch = command
    try:
        plan = plans.get(fingerprint)
        reused = plan is not None
        if plan is None:
            source = pickle.loads(source_blob)
            plan = source()
            plans[fingerprint] = plan
        if plan.hash != expected_hash:
            raise ConfigurationError(
                f"plan source is not deterministic: pool worker {worker_id} "
                f"rebuilt config hash {plan.hash[:12]}…, parent expected "
                f"{expected_hash[:12]}… — shard results cannot be merged "
                "safely"
            )
        injector = (
            plan.fault_plan.build_injector()
            if plan.fault_plan is not None
            else None
        )
        if injector is not None:
            for site in POOL_SITES:
                injector.register_site(site, f"pool-worker-{worker_id}")
        run = _WorkerRun(
            run_id=run_id,
            plan=plan,
            injector=injector,
            circuit=CircuitBreaker(breaker),
            catch=catch,
        )
        send((_MSG_RUN_READY, worker_id, run_id, plan.hash, reused))
        return run
    # Setup can fail in arbitrary user plan code; the parent decides
    # what the failure means for the run.
    except Exception as exc:  # repro-lint: ignore[EXC001]
        send((_MSG_RUN_ERROR, worker_id, run_id, type(exc).__name__, str(exc)))
        return None


def _worker_run_shard(
    command: tuple,
    run: "_WorkerRun | None",
    worker_id: int,
    stop_event: Any,
    send: Callable[..., None],
) -> None:
    """Handle a ``shard`` command: execute the assigned trial indices."""
    _, run_id, shard_id, indices, suppressed_list = command
    if run is None or run.run_id != run_id:
        send(
            (
                _MSG_RUN_ERROR,
                worker_id,
                run_id,
                "PoolError",
                f"shard {shard_id} arrived before run setup",
            )
        )
        return
    plan, injector = run.plan, run.injector
    suppressed = set(suppressed_list)
    pending_corrupt: set[int] = set()

    def pool_chaos(index: int) -> None:
        """The pool fault sites, fired (and acknowledged at the fire
        point — effect application is immediate and self-evident) inside
        the trial's guard-audit window.  Trials already struck once are
        dispatched with chaos suppressed (the quarantine discipline)."""
        if injector is None or index in suppressed:
            return
        event = injector.fire(
            FaultSite.POOL_WORKER_CRASH, timestamp=index, address=index
        )
        if event is not None:
            injector.acknowledge(event, "pool-worker-killed")
            os.kill(os.getpid(), signal.SIGKILL)
        event = injector.fire(
            FaultSite.POOL_WORKER_STALL, timestamp=index, address=index
        )
        if event is not None:
            injector.acknowledge(event, "pool-worker-stalled")
            stall_s = _STALL_CAP_S
            if event.magnitude_cycles:
                stall_s = min(event.magnitude_cycles / 1e6, stall_s)
            deadline = monotonic_clock() + stall_s
            while monotonic_clock() < deadline:
                # Deliberately no message: a stalled worker goes
                # silent, which is exactly what the parent detects.
                time.sleep(0.05)
        event = injector.fire(
            FaultSite.POOL_RESULT_CORRUPT, timestamp=index, address=index
        )
        if event is not None:
            injector.acknowledge(event, "pool-result-corrupted")
            pending_corrupt.add(index)

    def make_trial(index: int) -> Callable[[], Any]:
        fn = plan.trials[index].fn

        def wrapped() -> Any:
            pool_chaos(index)
            return fn()

        return wrapped

    def stop() -> str | None:
        return _STOP_POOL if stop_event.is_set() else None

    def skip_trial(local: int) -> str | None:
        index = indices[local]
        send((_MSG_STARTED, worker_id, run_id, shard_id, index))
        return run.circuit.gate(index)

    def on_trial_end(
        local: int, result: Any, error: Exception | None, elapsed_s: float
    ) -> None:
        index = indices[local]
        run.circuit.record(index, error is None)
        send(
            (
                _MSG_TRIAL, worker_id, run_id, index, plan.trials[index].key,
                dumps_payload(result) if error is None else None,
                None if error is None else (type(error).__name__, str(error)),
                elapsed_s,
            ),
            corrupt=index in pending_corrupt,
        )
        pending_corrupt.discard(index)

    try:
        with worker_context(WorkerContext(fault_injector=injector)):
            guarded = run_guarded_trials(
                [make_trial(index) for index in indices],
                run.catch,
                skip_trial=skip_trial,
                stop=stop,
                on_trial_end=on_trial_end,
            )
    except InvariantViolation as exc:
        try:
            payload: bytes | None = pickle.dumps(exc, protocol=4)
        except (pickle.PicklingError, TypeError, AttributeError, ValueError):
            payload = None
        send(
            (
                _MSG_INVARIANT, worker_id, run_id, payload, {
                    "message": str(exc),
                    "invariant": exc.invariant,
                    "seed": exc.seed,
                    "repro": exc.repro,
                },
            )
        )
        send((_MSG_SHARD_DONE, worker_id, run_id, shard_id,
              run.shard_summary(0)))
    except KeyboardInterrupt:
        send((_MSG_INTERRUPTED, worker_id, run_id))
        send((_MSG_SHARD_DONE, worker_id, run_id, shard_id,
              run.shard_summary(0)))
    else:
        send((_MSG_SHARD_DONE, worker_id, run_id, shard_id,
              run.shard_summary(guarded.skipped)))


def _pool_worker_main(worker_id: int, conn: Any, stop_event: Any) -> None:
    """The persistent worker: a command loop that outlives runs.

    Commands arrive on *conn* (``run`` / ``shard`` / ``exit``), and
    every reply goes back on *conn* as one pickled message.  The parent
    only ever sends small commands, with at most one outstanding shard
    per worker, so the two directions of the pipe cannot both fill.  The
    worker announces each trial before running it (the parent's liveness
    signal), exits when the parent disappears, and reports any
    non-contained exception as a crash before dying — the parent never
    waits on a silent worker.
    """
    parent_pid = os.getppid()

    with contextlib.closing(conn):

        def send(message: tuple, corrupt: bool = False) -> None:
            blob = pickle.dumps(message, protocol=4)
            # The POOL_RESULT_CORRUPT effect: a reversed pickle opens
            # with STOP on an empty stack, so it can never unpickle.
            conn.send_bytes(blob[::-1] if corrupt else blob)

        plans: dict[str, ExperimentPlan] = {}
        run: _WorkerRun | None = None
        while True:
            try:
                if os.getppid() != parent_pid:
                    return
                if not conn.poll(0.05):
                    continue
                try:
                    command = conn.recv()
                except (EOFError, OSError):
                    return
                verb = command[0]
                if verb == "exit":
                    return
                if verb == "run":
                    run = _worker_begin_run(command, plans, worker_id, send)
                elif verb == "shard":
                    _worker_run_shard(command, run, worker_id, stop_event, send)
            except KeyboardInterrupt:
                # Terminal SIGINT reaches the whole process group; report
                # and stay alive — the pool survives an aborted run.
                try:
                    rid = run.run_id if run is not None else 0
                    send((_MSG_INTERRUPTED, worker_id, rid))
                except BaseException:  # repro-lint: ignore[EXC001]
                    return
            # Last line of defense: ANY other escape must reach the
            # parent as a crash report, or supervision would wait on a
            # silent worker until the hang deadline.
            except BaseException:  # repro-lint: ignore[EXC001]
                try:
                    send((_MSG_CRASHED, worker_id, traceback.format_exc()))
                except BaseException:  # repro-lint: ignore[EXC001]
                    pass
                return


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _Shard:
    """One unit of dispatched work and what came back from it."""

    __slots__ = ("shard_id", "indices", "received")

    def __init__(self, shard_id: int, indices: list[int]) -> None:
        self.shard_id = shard_id
        self.indices = list(indices)
        self.received: set[int] = set()

    def unfinished(self) -> list[int]:
        return [i for i in self.indices if i not in self.received]


class _Member:
    """Parent-side bookkeeping for one pool worker slot."""

    def __init__(self, worker_id: int, backoff: RespawnBackoff) -> None:
        self.worker_id = worker_id
        self.backoff = backoff
        self.process: Any = None
        self.conn: Any = None
        self.state: WorkerState | None = None
        self.run_ready = False
        self.shard: _Shard | None = None
        self.spawn_started = 0.0
        self.respawn_due = 0.0
        self.last_progress = 0.0
        #: ``(shard_id, index)`` of the last trial the worker announced.
        self.started: tuple[int, int] | None = None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class WorkerPool:
    """A supervised, persistent pool of experiment workers.

    Build one (or use the :func:`get_pool` registry) and call
    :meth:`run` repeatedly — workers, their interpreters, and their
    rebuilt plans survive across runs.  :meth:`close` (idempotent, also
    wired to ``atexit`` via :func:`shutdown_pools`) tears everything
    down.  Workers talk to the parent only over their pipes; the pool
    holds no shared-memory segment.
    """

    def __init__(self, workers: int, config: PoolConfig | None = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.config = config or PoolConfig()
        # Long-lived interpreters must agree on hash() with each other
        # and with the parent.
        os.environ.setdefault("PYTHONHASHSEED", _PINNED_HASH_SEED)
        try:
            self._ctx = multiprocessing.get_context("forkserver")
        except ValueError:  # pragma: no cover - platform without forkserver
            self._ctx = multiprocessing.get_context("spawn")
        self._stop_event = self._ctx.Event()
        self._members = [
            _Member(
                worker_id,
                RespawnBackoff(base_s=_RESPAWN_BASE_S, cap_s=_RESPAWN_CAP_S),
            )
            for worker_id in range(workers)
        ]
        self._run_seq = 0
        self.broken = False
        self.broken_reason = ""
        self.closed = False
        self.stats: dict[str, int] = {
            "runs": 0,
            "respawns": 0,
            "plan_reuses": 0,
            "degraded": 0,
            "poisoned": 0,
        }

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Stop workers and close their pipes.  Idempotent."""
        if self.closed:
            return
        self.closed = True
        self._stop_event.set()
        for member in self._members:
            if member.conn is not None:
                try:
                    member.conn.send(("exit",))
                except (OSError, ValueError):
                    pass
        for member in self._members:
            process = member.process
            if process is not None and process.is_alive():
                process.join(timeout=1.0)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=5.0)
            self._release_member(member)
            member.state = WorkerState.RETIRED

    def _release_member(self, member: _Member) -> None:
        """Close a member's IPC handles (the process is handled by the
        caller) and reset its slots for a future spawn."""
        if member.conn is not None:
            try:
                member.conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        member.process = None
        member.conn = None
        member.run_ready = False
        member.shard = None

    # -- the run --------------------------------------------------------
    def run(
        self,
        plan: ExperimentPlan,
        *,
        plan_source: Callable[[], ExperimentPlan] | None = None,
        run_dir: str | Path | None = None,
        resume: bool = False,
        deadline_s: float | None = None,
        breaker: BreakerConfig | None = None,
        catch: tuple[type[Exception], ...] = (ReproError,),
    ) -> RunOutcome:
        """Execute *plan* on the pool.

        Same supervision surface and :class:`RunOutcome` contract as
        :func:`~repro.experiments.runner.run_experiment`.  The trials run
        inline in the parent instead only when fewer than two are
        pending or the pool is marked broken.  *plan_source* is
        required: the picklable recipe the workers rebuild *plan* from,
        ``functools.partial(module.trial_plan, **overrides)``.
        """
        if self.closed:
            raise PoolError("worker pool is closed")
        if plan_source is None:
            raise ConfigurationError(
                f"plan {plan.name!r} has no plan_source; pass "
                "functools.partial(module.trial_plan, **overrides) so "
                "workers can rebuild it"
            )
        ledger = RunLedger(plan, run_dir, resume, deadline_s)
        pending = ledger.pending()
        checker = PoolStateChecker(len(plan.trials))
        poison = PoisonLedger(_POISON_THRESHOLD)
        abort_status: str | None = None
        abort_error: Exception | None = None
        config_error: Exception | None = None
        longest_trial_s = 0.0
        degrade_reason: str | None = None
        pool_events: list[dict[str, Any]] = []
        respawns_this_run = 0
        reuses_before = self.stats["plan_reuses"]

        def _finish(status: str, error: Exception | None = None) -> RunOutcome:
            return ledger.finish(status, error=error, pool=_telemetry())

        def _telemetry() -> dict[str, Any]:
            return {
                "workers": self.workers,
                "mode": DEGRADED_SERIAL if degrade_reason else "pool",
                "degraded": degrade_reason,
                "respawns": respawns_this_run,
                "plan_reuses": self.stats["plan_reuses"] - reuses_before,
                "poisoned": list(poison.poisoned),
                "events": list(pool_events),
            }

        def _terminal_finish() -> RunOutcome:
            try:
                checker.final_audit(
                    len(ledger.results) + ledger.failed,
                    ledger.breaker_skips,
                )
            except InvariantViolation as exc:
                return _finish(STATUS_INVARIANT, error=exc)
            if poison.poisoned:
                reasons = "; ".join(
                    f"{key} ({poison.reasons[key][-1]})"
                    for key in poison.poisoned
                )
                error = PoolError(
                    f"{plan.name}: {len(poison.poisoned)} trial(s) "
                    f"quarantined after repeatedly killing pool workers: "
                    f"{reasons}"
                )
                return _finish(STATUS_POISONED, error=error)
            return ledger.conclude(pool=_telemetry())

        def _run_inline(reason: str) -> RunOutcome:
            """The graceful-degradation path: the remaining trials run in
            the parent through the serial loop on this run's ledger, so
            the artifact is byte-identical to a serial run's."""
            nonlocal degrade_reason
            degrade_reason = reason
            self.stats["degraded"] += 1
            remaining = [
                index
                for index in ledger.pending()
                if not poison.is_poisoned(plan.trials[index].key)
            ]
            checker.note_dispatch(_INLINE_WORKER, remaining)
            status, error = run_trials(ledger, remaining, catch, breaker)
            for index in remaining:
                if index in ledger.trial_seconds:
                    checker.note_result(index, _INLINE_WORKER)
            checker.note_unassign(remaining)
            if status is not None:
                return _finish(status, error=error)
            return _terminal_finish()

        def _run_pooled() -> RunOutcome | None:
            """Supervised pooled execution; ``None`` means "degrade to
            inline now" (``degrade_reason`` is set)."""
            nonlocal abort_status, abort_error, config_error, degrade_reason
            nonlocal respawns_this_run, longest_trial_s
            self._run_seq += 1
            run_id = self._run_seq
            self.stats["runs"] += 1
            if self._stop_event.is_set():
                self._stop_event.clear()
            source_blob = pickle.dumps(plan_source, protocol=4)
            fingerprint = hashlib.sha256(source_blob + plan.hash.encode()).hexdigest()
            run_cmd = (
                "run", run_id, fingerprint, source_blob, plan.hash, breaker,
                catch,
            )
            shard_count = max(
                1,
                min(len(pending), self.workers * self.config.shards_per_worker),
            )
            # shard_count <= len(pending), so no interleaved shard is empty.
            queue: collections.deque[_Shard] = collections.deque(
                _Shard(shard_id, chunk)
                for shard_id, chunk in enumerate(
                    shard_interleave(pending, shard_count)
                )
            )
            next_shard_id = len(queue)
            suppressed: set[int] = set()
            active = self._members[:max(1, min(self.workers, len(queue)))]
            drain_deadline: float | None = None
            abort_latch_count = 0

            def _send(member: _Member, command: tuple) -> bool:
                try:
                    member.conn.send(command)
                    return True
                except (OSError, ValueError, BrokenPipeError):
                    return False

            def _spawn(member: _Member) -> None:
                parent_conn, child_conn = self._ctx.Pipe()
                process = self._ctx.Process(
                    target=_pool_worker_main,
                    args=(member.worker_id, child_conn, self._stop_event),
                    daemon=True,
                    name=f"repro-pool-{member.worker_id}",
                )
                process.start()
                child_conn.close()
                member.process = process
                member.conn = parent_conn
                member.run_ready = False
                member.state = WorkerState.SPAWNING
                checker.note_worker(
                    member.worker_id, WorkerState.SPAWNING.value, "spawn"
                )
                member.spawn_started = monotonic_clock()
                member.last_progress = member.spawn_started
                member.started = None
                if not _send(member, run_cmd):
                    _fail(member, "pipe closed at spawn")

            def _arm(member: _Member) -> None:
                """Reuse a warm worker for this run: re-announce.  Stale
                messages of an earlier run still in its pipe carry an
                old ``run_id`` and are dropped by :func:`_handle`."""
                member.run_ready = False
                member.state = WorkerState.SPAWNING
                checker.note_worker(
                    member.worker_id, WorkerState.SPAWNING.value, "re-arm"
                )
                member.spawn_started = monotonic_clock()
                member.last_progress = member.spawn_started
                member.started = None
                if not _send(member, run_cmd):
                    _fail(member, "pipe closed at re-arm")

            def _fail(member: _Member, reason: str) -> None:
                """Kill and (eventually) respawn a failed worker; blame,
                strike, and requeue its unacknowledged trials."""
                nonlocal respawns_this_run, next_shard_id
                blamed_key: str | None = None
                shard = member.shard
                if shard is not None:
                    remaining = shard.unfinished()
                    checker.note_unassign(remaining)
                    blame: int | None = None
                    if (
                        member.started is not None
                        and member.started[0] == shard.shard_id
                        and member.started[1] in remaining
                    ):
                        blame = member.started[1]
                    elif remaining:
                        blame = remaining[0]
                    if blame is not None:
                        blamed_key = plan.trials[blame].key
                        suppressed.add(blame)
                        if poison.strike(blamed_key, reason):
                            checker.note_poison(blame)
                            self.stats["poisoned"] += 1
                            remaining = [i for i in remaining if i != blame]
                    if remaining:
                        queue.append(_Shard(next_shard_id, remaining))
                        next_shard_id += 1
                    member.shard = None
                pool_events.append(
                    {
                        "worker": member.worker_id,
                        "reason": reason,
                        "blamed": blamed_key,
                    }
                )
                process = member.process
                if process is not None and process.is_alive():
                    process.kill()
                    process.join(timeout=10.0)
                self._release_member(member)
                member.state = WorkerState.RESPAWNING
                checker.note_worker(
                    member.worker_id, WorkerState.RESPAWNING.value, reason
                )
                member.respawn_due = (
                    monotonic_clock() + member.backoff.next_delay()
                )
                respawns_this_run += 1
                self.stats["respawns"] += 1

            def _handle(member: _Member, message: tuple) -> str | None:
                """Process one worker message; returns a failure reason
                when the message itself condemns the worker."""
                nonlocal abort_status, abort_error, config_error
                nonlocal longest_trial_s
                tag = message[0]
                if tag != _MSG_CRASHED and message[2] == run_id:
                    # Any message of this run is a sign of life.
                    member.last_progress = monotonic_clock()
                    if member.state is WorkerState.SUSPECT:
                        member.state = WorkerState.HEALTHY
                        checker.note_worker(
                            member.worker_id, WorkerState.HEALTHY.value,
                            "heartbeat resumed",
                        )
                if tag == _MSG_STARTED:
                    _, _, rid, shard_id, index = message
                    if rid == run_id:
                        member.started = (shard_id, index)
                    return None
                if tag == _MSG_TRIAL:
                    _, wid, rid, index, key, payload, error, elapsed_s = message
                    if rid != run_id:
                        return None  # stale leftovers of an aborted run
                    if (
                        not 0 <= index < len(plan.trials)
                        or plan.trials[index].key != key
                    ):
                        config_error = ConfigurationError(
                            f"pool worker {wid} returned key {key!r} for "
                            f"trial index {index} — plan source drift"
                        )
                        return None
                    longest_trial_s = max(longest_trial_s, elapsed_s)
                    if member.shard is not None:
                        member.shard.received.add(index)
                    checker.note_result(index, wid)
                    ledger.record(index, elapsed_s, payload, error)
                    return None
                if tag == _MSG_RUN_READY:
                    _, wid, rid, plan_hash, reused = message
                    if rid != run_id:
                        return None
                    if plan_hash != plan.hash:
                        config_error = ConfigurationError(
                            f"pool worker {wid} rebuilt config hash "
                            f"{plan_hash[:12]}…, parent expected "
                            f"{plan.hash[:12]}… — plan source drift"
                        )
                        return None
                    member.run_ready = True
                    if member.state is WorkerState.SPAWNING:
                        member.state = WorkerState.HEALTHY
                        checker.note_worker(
                            member.worker_id, WorkerState.HEALTHY.value,
                            "run-ready",
                        )
                    if reused:
                        self.stats["plan_reuses"] += 1
                    return None
                if tag == _MSG_RUN_ERROR:
                    _, wid, rid, error_type, error_text = message
                    if rid != run_id:
                        return None
                    config_error = ConfigurationError(
                        f"pool worker {wid} failed run setup: "
                        f"{error_type}: {error_text}"
                    )
                    return None
                if tag == _MSG_SHARD_DONE:
                    _, wid, rid, shard_id, summary = message
                    if rid != run_id:
                        return None
                    shard = member.shard
                    if shard is None or shard.shard_id != shard_id:
                        return None
                    ledger.stop_skips += summary["stop_skipped"]
                    ledger.merge_breaker(
                        summary["breaker_events"],
                        summary["breaker_skipped"],
                        summary["breaker_state"],
                    )
                    checker.note_unassign(shard.unfinished())
                    member.shard = None
                    member.backoff.reset()
                    return None
                if tag == _MSG_INVARIANT:
                    _, wid, rid, payload, summary = message
                    if rid != run_id:
                        return None
                    if abort_status != STATUS_INVARIANT:
                        abort_status = STATUS_INVARIANT
                        abort_error = _rebuild_violation(payload, summary)
                    self._stop_event.set()
                    return None
                if tag == _MSG_INTERRUPTED:
                    _, wid, rid = message
                    if rid != run_id:
                        return None
                    if abort_status is None:
                        abort_status = STATUS_INTERRUPTED
                    self._stop_event.set()
                    return None
                if tag == _MSG_CRASHED:
                    return f"worker crashed:\n{message[-1]}"
                raise PoolProtocolError(
                    f"unknown message tag {tag!r} from worker "
                    f"{member.worker_id}"
                )

            def _service(member: _Member) -> None:
                """One supervision pass over one member: drain its pipe,
                then judge liveness, message freshness, and deadlines."""
                now = monotonic_clock()
                if member.state is WorkerState.RESPAWNING:
                    if (
                        abort_status is None
                        and degrade_reason is None
                        and now >= member.respawn_due
                    ):
                        _spawn(member)
                    return
                if member.process is None:
                    return
                fail_reason: str | None = None
                while fail_reason is None and config_error is None:
                    try:
                        if not member.conn.poll():
                            break
                        blob = member.conn.recv_bytes()
                    except (EOFError, OSError):
                        # The worker is gone, possibly killed mid-send.
                        fail_reason = "result pipe closed"
                        break
                    try:
                        fail_reason = _handle(member, _decode(blob))
                    except PoolProtocolError as exc:
                        fail_reason = f"corrupt result stream: {exc}"
                if config_error is not None:
                    return
                if fail_reason:
                    _fail(member, fail_reason)
                    return
                if not member.process.is_alive():
                    _fail(
                        member,
                        "worker process died "
                        f"(exitcode {member.process.exitcode})",
                    )
                    return
                if member.state is WorkerState.SPAWNING:
                    if now - member.spawn_started > _SPAWN_TIMEOUT_S:
                        _fail(
                            member, f"spawn timeout after {_SPAWN_TIMEOUT_S:g}s"
                        )
                    return
                if member.shard is not None:
                    stale_s = now - member.last_progress
                    if (
                        stale_s > self.config.hang_suspect_s
                        and member.state is WorkerState.HEALTHY
                    ):
                        member.state = WorkerState.SUSPECT
                        checker.note_worker(
                            member.worker_id, WorkerState.SUSPECT.value,
                            f"heartbeat stale {stale_s:.1f}s",
                        )
                    if stale_s > self.config.hang_deadline_s(longest_trial_s):
                        _fail(
                            member,
                            f"hung: heartbeat stale {stale_s:.1f}s past "
                            "the hang deadline",
                        )

            def _teardown(kill_busy_only: bool) -> None:
                """End-of-run cleanup.  With *kill_busy_only* the warm
                idle workers survive for the next run; members still
                holding a shard are killed (their late messages must
                never reach a future run's journal)."""
                for member in active:
                    if member.shard is not None:
                        checker.note_unassign(member.shard.unfinished())
                        member.shard = None
                        kill = True
                    else:
                        kill = not kill_busy_only
                    if kill and member.process is not None:
                        if member.process.is_alive():
                            member.process.kill()
                            member.process.join(timeout=10.0)
                        self._release_member(member)
                        member.state = None

            with interrupt_shield() as latch:
                try:
                    for member in active:
                        if member.alive:
                            _arm(member)
                        else:
                            _spawn(member)
                except InvariantViolation as exc:
                    abort_status = STATUS_INVARIANT
                    abort_error = exc
                    self._stop_event.set()
                while True:
                    try:
                        for member in active:
                            _service(member)
                            if config_error is not None:
                                break
                    except InvariantViolation as exc:
                        # The pool-state checker itself tripped: the
                        # bookkeeping is untrusted, stop everything.
                        if abort_status != STATUS_INVARIANT:
                            abort_status = STATUS_INVARIANT
                            abort_error = exc
                        self._stop_event.set()
                    if config_error is not None:
                        break
                    if abort_status is None:
                        if latch.interrupted:
                            abort_status = STATUS_INTERRUPTED
                            self._stop_event.set()
                        elif ledger.watchdog.check() == STOP_DEADLINE:
                            abort_status = STATUS_DEADLINE
                            self._stop_event.set()
                    if (
                        abort_status is None
                        and degrade_reason is None
                        and respawns_this_run > self.config.respawn_budget
                    ):
                        degrade_reason = (
                            f"respawn budget exhausted ({respawns_this_run} "
                            f"respawns > {self.config.respawn_budget}); "
                            "degrading to the inline serial loop"
                        )
                        self.broken = True
                        self.broken_reason = degrade_reason
                        break
                    if abort_status is None:
                        try:
                            for member in active:
                                if (
                                    member.state is WorkerState.HEALTHY
                                    and member.run_ready
                                    and member.shard is None
                                    and queue
                                ):
                                    shard = queue.popleft()
                                    if _send(
                                        member,
                                        (
                                            "shard", run_id, shard.shard_id,
                                            list(shard.indices),
                                            sorted(suppressed),
                                        ),
                                    ):
                                        member.shard = shard
                                        # An idle worker sends nothing:
                                        # staleness counts from here.
                                        member.last_progress = (
                                            monotonic_clock()
                                        )
                                        checker.note_dispatch(
                                            member.worker_id, shard.indices
                                        )
                                    else:
                                        queue.appendleft(shard)
                                        _fail(
                                            member, "pipe closed at dispatch"
                                        )
                        except InvariantViolation as exc:
                            abort_status = STATUS_INVARIANT
                            abort_error = exc
                            self._stop_event.set()
                            continue
                        if not queue and all(
                            member.shard is None for member in active
                        ):
                            break
                    else:
                        if drain_deadline is None:
                            drain_deadline = monotonic_clock() + _DRAIN_S
                            abort_latch_count = latch.count
                        busy = [m for m in active if m.shard is not None]
                        if not busy:
                            break
                        if (
                            monotonic_clock() > drain_deadline
                            or latch.count > abort_latch_count
                        ):
                            break
                    time.sleep(_POLL_S)

                if config_error is not None:
                    _teardown(kill_busy_only=False)
                    raise config_error
                if degrade_reason is not None:
                    _teardown(kill_busy_only=False)
                    return None
                if abort_status == STATUS_DEADLINE:
                    # Serial parity: everything the stop event kept from
                    # running counts as deadline-skipped, including
                    # shards never dispatched and shards cut off by the
                    # drain deadline.
                    leftover = sum(
                        len(shard.unfinished()) for shard in queue
                    )
                    leftover += sum(
                        len(member.shard.unfinished())
                        for member in active
                        if member.shard is not None
                    )
                    ledger.stop_skips += leftover
                _teardown(kill_busy_only=abort_status is None)
                if abort_status is not None:
                    return _finish(abort_status, error=abort_error)
                return _terminal_finish()

        with sigterm_as_interrupt():
            if not pending:
                return _terminal_finish()
            if len(pending) < 2:
                return _run_inline("only 1 pending trial")
            if self.broken:
                return _run_inline(f"pool marked broken: {self.broken_reason}")
            outcome = _run_pooled()
            if outcome is not None:
                return outcome
            return _run_inline(degrade_reason or "pool failure")


# ----------------------------------------------------------------------
# The process-wide pool registry
# ----------------------------------------------------------------------
_POOLS: dict[int, WorkerPool] = {}


def get_pool(workers: int, config: PoolConfig | None = None) -> WorkerPool:
    """The process-wide persistent pool for *workers* slots.

    Reuses a live pool when the requested configuration matches (or is
    unspecified); a mismatched configuration closes and replaces it.
    """
    pool = _POOLS.get(workers)
    if pool is not None and not pool.closed:
        if config is None or config == pool.config:
            return pool
        pool.close()
    pool = WorkerPool(workers, config=config)
    _POOLS[workers] = pool
    return pool


def shutdown_pools() -> None:
    """Close every registry pool (wired to ``atexit``; also what a test
    calls to simulate a pool restart between runs)."""
    for pool in list(_POOLS.values()):
        pool.close()
    _POOLS.clear()


atexit.register(shutdown_pools)
