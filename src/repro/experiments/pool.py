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
  runs.  A worker rebuilds ``plan_source(...)`` once per distinct plan
  fingerprint and caches it, so repeated runs of the same experiment pay
  near-zero startup.
* **Checksummed shared-memory results** — workers stream results over a
  per-worker :class:`ShmRing` (a single-producer single-consumer byte
  ring in ``multiprocessing.shared_memory``) as CRC32-framed pickles
  instead of pickled queue messages; a frame that fails its checksum is
  a detected failure (:class:`~repro.errors.PoolProtocolError`), never
  silently parsed.
* **Supervision** — each worker stamps a :class:`~repro.experiments.
  supervisor.HeartbeatBoard` slot between trials.  The parent turns a
  stale worker ``suspect``, SIGKILLs it past the hang deadline
  (``max(floor, factor × longest trial)`` — the PR-2 watchdog discipline
  applied to liveness), respawns crashed workers under capped
  exponential backoff, and requeues their unacknowledged trials.  A
  trial that repeatedly takes workers down is quarantined to the
  manifest's ``poisoned`` list (exit code 8) instead of wedging the run.
* **Graceful degradation** — when the measured
  :class:`~repro.experiments.supervisor.CostModel` says parallelism
  cannot pay (one effective CPU, tiny batch, overhead-dominated trials)
  or the respawn budget is exhausted, the run continues *inline* in the
  parent on the same journal/manifest — byte-identical to the serial
  loop, because it is the serial loop.

Equivalence contract: a pool run's journal, manifest, and finalized
artifact are byte-identical to a serial run's (the serial loop's
checkpoint helpers: journal entries iterate in plan-index order;
manifests carry the same counts),
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
import struct
import time
import traceback
import zlib
from dataclasses import dataclass
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
    STATUS_INSUFFICIENT,
    STATUS_INTERRUPTED,
    STATUS_INVARIANT,
    STATUS_POISONED,
    CheckpointJournal,
    RunManifest,
)
from repro.experiments.guard import TrialFailure, run_guarded_trials
from repro.experiments.runner import (
    STOP_DEADLINE,
    BreakerConfig,
    CircuitBreaker,
    ExperimentPlan,
    RunOutcome,
    Watchdog,
    _coerce_plan_source,
    _ordered_successes,
    insufficient_error,
    monotonic_clock,
    prepare_checkpoint,
    resolve_finalize,
)
from repro.experiments.supervisor import (
    DEGRADED_SERIAL,
    CostModel,
    HeartbeatBoard,
    PoisonLedger,
    PoolConfig,
    RespawnBackoff,
    WorkerState,
    _open_shared_memory,
    _retrack,
    interrupt_shield,
    sigterm_as_interrupt,
)
from repro.faults.plan import FaultSite
from repro.faults.sites import POOL_SITES
from repro.invariants.pool import PoolStateChecker

__all__ = [
    "FrameAssembler",
    "ShmRing",
    "WorkerContext",
    "WorkerPool",
    "current_fault_injector",
    "get_pool",
    "run_pool_experiment",
    "shard_interleave",
    "shutdown_pools",
]

#: Supervision loop cadence (parent) / command poll cadence (worker).
_POLL_S = 0.02

#: The pseudo worker id the degraded-serial inline path reports to the
#: pool-state checker (it is "the parent executing trials itself").
_INLINE_WORKER = -1

# Worker -> parent message tags (framed pickles on the result ring).
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

#: Breaker states by severity: the manifest records the worst state any
#: worker's breaker reached.
_BREAKER_SEVERITY = {"closed": 0, "half-open": 1, "open": 2}


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


# ----------------------------------------------------------------------
# Worker-side context
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerContext:
    """What a trial can learn about the worker process executing it."""

    fault_injector: Any = None


_WORKER_CONTEXT: WorkerContext | None = None


def _set_worker_context(context: WorkerContext | None) -> WorkerContext | None:
    """Install *context* for the trials that run next; returns the
    previous one."""
    global _WORKER_CONTEXT
    previous = _WORKER_CONTEXT
    # Intentional per-process singleton: written only between runs
    # (before any trial of the run starts) and only ever read by
    # current_fault_injector() — divergence across workers is the
    # point, each worker must see its *own* injector.
    _WORKER_CONTEXT = context  # repro-lint: ignore[PAR101]
    return previous


def current_fault_injector() -> Any:
    """The executing worker's per-process
    :class:`~repro.faults.injector.FaultInjector` (built from
    ``plan.fault_plan``), or ``None`` outside a pool run / without a
    plan.

    Trial code that fires chaos faults under ``workers > 1`` uses this
    instead of a closed-over injector, so the fired-versus-acknowledged
    audit stays inside the worker that fired the fault.
    """
    return _WORKER_CONTEXT.fault_injector if _WORKER_CONTEXT else None


# ----------------------------------------------------------------------
# The checksummed shared-memory result stream
# ----------------------------------------------------------------------
_FRAME_HEADER = struct.Struct("<4sII")  # magic, payload length, crc32
_FRAME_MAGIC = b"DSP7"
#: Sanity cap on a single frame so a corrupt length field cannot make
#: the parent wait forever for bytes that will never arrive.
_FRAME_LIMIT = 64 << 20

_RING_HEADER = 16  # two u64 absolute counters: head (writer), tail (reader)
_U64 = struct.Struct("<Q")


def _encode_frame(payload: bytes, corrupt: bool = False) -> bytes:
    """Frame *payload* for the ring; *corrupt* flips the checksum (the
    ``POOL_RESULT_CORRUPT`` chaos effect — detectable, never parseable)."""
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    if corrupt:
        crc ^= 0x5A5A5A5A
    return _FRAME_HEADER.pack(_FRAME_MAGIC, len(payload), crc) + payload


class FrameAssembler:
    """Reassembles framed records from a ring's raw byte chunks.

    Raises :class:`~repro.errors.PoolProtocolError` on a bad magic,
    oversized length, or checksum mismatch — the parent treats the whole
    stream (and the worker behind it) as failed; trials whose results
    were lost behind the corruption are requeued and re-executed.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        """Buffer *data*; return every complete, verified payload."""
        self._buffer.extend(data)
        frames: list[bytes] = []
        while len(self._buffer) >= _FRAME_HEADER.size:
            magic, length, crc = _FRAME_HEADER.unpack_from(self._buffer, 0)
            if magic != _FRAME_MAGIC:
                raise PoolProtocolError(f"bad frame magic {magic!r}")
            if length > _FRAME_LIMIT:
                raise PoolProtocolError(
                    f"frame length {length} exceeds limit {_FRAME_LIMIT}"
                )
            end = _FRAME_HEADER.size + length
            if len(self._buffer) < end:
                break
            payload = bytes(self._buffer[_FRAME_HEADER.size:end])
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                raise PoolProtocolError(
                    f"frame checksum mismatch over {length} byte(s)"
                )
            del self._buffer[:end]
            frames.append(payload)
        return frames


class ShmRing:
    """Single-producer single-consumer byte ring in shared memory.

    Layout: a 16-byte header (absolute ``head`` and ``tail`` u64
    counters, guarded by *lock* against torn 8-byte accesses) followed
    by ``capacity`` data bytes.  The writer blocks in small sleeps when
    the ring is full — records larger than the free space (or even the
    whole capacity) stream through in chunks — and can bail out via
    *should_abort* if the reader vanishes.  The creating side owns (and
    unlinks) the segment; attachers never do (see
    :func:`~repro.experiments.supervisor._open_shared_memory`).
    """

    def __init__(
        self,
        shm: Any,
        lock: Any,
        capacity: int,
        owner: bool,
    ) -> None:
        self._shm = shm
        self.lock = lock
        self.capacity = capacity
        self._owner = owner
        self._closed = False

    @classmethod
    def create(cls, lock: Any, capacity: int) -> "ShmRing":
        """Parent-side: allocate a fresh ring segment."""
        shm = _open_shared_memory(None, create=True, size=_RING_HEADER + capacity)
        shm.buf[:_RING_HEADER] = b"\x00" * _RING_HEADER
        return cls(shm, lock, capacity, owner=True)

    @classmethod
    def attach(cls, name: str, lock: Any, capacity: int) -> "ShmRing":
        """Worker-side: attach to the parent's segment by name."""
        return cls(
            _open_shared_memory(name, create=False), lock, capacity, owner=False
        )

    @property
    def name(self) -> str:
        """Segment name a worker attaches to."""
        return self._shm.name

    def _counters(self) -> tuple[int, int]:
        with self.lock:
            head = _U64.unpack_from(self._shm.buf, 0)[0]
            tail = _U64.unpack_from(self._shm.buf, 8)[0]
        return head, tail

    def write(
        self, data: bytes, should_abort: Callable[[], bool] | None = None
    ) -> None:
        """Append *data*, blocking (in chunks) while the ring is full."""
        if self._closed:
            raise PoolProtocolError("write on a closed ring")
        view = memoryview(data)
        offset = 0
        waits = 0
        while offset < len(view):
            head, tail = self._counters()
            free = self.capacity - (head - tail)
            if free <= 0:
                time.sleep(0.001)
                waits += 1
                if (
                    should_abort is not None
                    and waits % 100 == 0
                    and should_abort()
                ):
                    raise PoolProtocolError(
                        "ring reader vanished while the writer was blocked"
                    )
                continue
            chunk = min(free, len(view) - offset)
            pos = head % self.capacity
            first = min(chunk, self.capacity - pos)
            base = _RING_HEADER
            self._shm.buf[base + pos:base + pos + first] = view[
                offset:offset + first
            ]
            if chunk > first:
                self._shm.buf[base:base + chunk - first] = view[
                    offset + first:offset + chunk
                ]
            with self.lock:
                _U64.pack_into(self._shm.buf, 0, head + chunk)
            offset += chunk

    def read(self, max_bytes: int = 1 << 16) -> bytes:
        """Up to *max_bytes* of pending stream, ``b""`` when empty."""
        if self._closed:
            raise PoolProtocolError("read on a closed ring")
        head, tail = self._counters()
        available = head - tail
        if available > self.capacity or available < 0:
            raise PoolProtocolError(
                f"ring header corrupt: head={head} tail={tail} "
                f"capacity={self.capacity}"
            )
        if available == 0:
            return b""
        chunk = min(available, max_bytes)
        pos = tail % self.capacity
        first = min(chunk, self.capacity - pos)
        base = _RING_HEADER
        data = bytes(self._shm.buf[base + pos:base + pos + first])
        if chunk > first:
            data += bytes(self._shm.buf[base:base + chunk - first])
        with self.lock:
            _U64.pack_into(self._shm.buf, 8, tail + chunk)
        return data

    def close(self) -> None:
        """Release the mapping; the owner also unlinks the segment."""
        if self._closed:
            return
        self._closed = True
        self._shm.close()
        if self._owner:
            _retrack(self._shm)
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "ShmRing":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


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

    def shard_summary(self, guarded: Any) -> dict[str, Any]:
        events = self.circuit.events[self.events_sent:]
        self.events_sent = len(self.circuit.events)
        skipped = self.circuit.skipped - self.skipped_sent
        self.skipped_sent = self.circuit.skipped
        return {
            "stop_reason": guarded.stop_reason if guarded is not None else "",
            "stop_skipped": guarded.skipped if guarded is not None else 0,
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
        _set_worker_context(WorkerContext(fault_injector=injector))
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
    board: HeartbeatBoard,
    stop_event: Any,
    config: PoolConfig,
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
            stall_s = config.stall_cap_s
            if event.magnitude_cycles:
                stall_s = min(event.magnitude_cycles / 1e6, stall_s)
            deadline = monotonic_clock() + stall_s
            while monotonic_clock() < deadline:
                # Deliberately no heartbeat: a stalled worker goes
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
        board.beat(worker_id, trial=index, shard=shard_id)
        return run.circuit.gate(index)

    def on_trial_end(
        local: int, result: Any, failure: TrialFailure | None, elapsed_s: float
    ) -> None:
        index = indices[local]
        key = plan.trials[index].key
        run.circuit.record(index, failure is None)
        if failure is None:
            message = (
                _MSG_TRIAL, worker_id, run_id, index, key, True,
                result, None, None, elapsed_s,
            )
        else:
            message = (
                _MSG_TRIAL, worker_id, run_id, index, key, False, None,
                type(failure.error).__name__, str(failure.error), elapsed_s,
            )
        send(message, corrupt=index in pending_corrupt)
        pending_corrupt.discard(index)
        board.beat(worker_id, trial=-1, shard=shard_id)

    try:
        guarded = run_guarded_trials(
            [make_trial(index) for index in indices],
            catch=run.catch,
            min_successes=0,  # the floor is enforced over merged results
            label=f"{plan.name}[pool shard {shard_id}]",
            skip_trial=skip_trial,
            stop=stop,
            on_trial_end=on_trial_end,
            fault_injector=injector,
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
              run.shard_summary(None)))
    except KeyboardInterrupt:
        send((_MSG_INTERRUPTED, worker_id, run_id))
        send((_MSG_SHARD_DONE, worker_id, run_id, shard_id,
              run.shard_summary(None)))
    else:
        send((_MSG_SHARD_DONE, worker_id, run_id, shard_id,
              run.shard_summary(guarded)))


def _pool_worker_main(
    worker_id: int,
    conn: Any,
    ring_name: str,
    ring_lock: Any,
    ring_capacity: int,
    board_name: str,
    board_slots: int,
    stop_event: Any,
    config: PoolConfig,
) -> None:
    """The persistent worker: a command loop that outlives runs.

    Commands arrive on *conn* (``run`` / ``shard`` / ``exit``); every
    reply streams back over the shared-memory ring.  The worker beats
    its heartbeat slot when idle and between trials, exits when the
    parent disappears, and reports any non-contained exception as a
    crash before dying — the parent never waits on a silent worker.
    """
    parent_pid = os.getppid()

    def parent_gone() -> bool:
        return os.getppid() != parent_pid

    with contextlib.ExitStack() as stack:
        ring = stack.enter_context(
            ShmRing.attach(ring_name, ring_lock, ring_capacity)
        )
        board = stack.enter_context(
            HeartbeatBoard.attach(board_name, board_slots)
        )
        stack.callback(conn.close)

        def send(message: tuple, corrupt: bool = False) -> None:
            blob = pickle.dumps(message, protocol=4)
            ring.write(
                _encode_frame(blob, corrupt=corrupt), should_abort=parent_gone
            )

        plans: dict[str, ExperimentPlan] = {}
        run: _WorkerRun | None = None
        while True:
            try:
                board.beat(worker_id)
                if parent_gone():
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
                    _worker_run_shard(
                        command, run, worker_id, board, stop_event, config,
                        send,
                    )
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
        self.ring: ShmRing | None = None
        self.assembler: FrameAssembler | None = None
        self.state: WorkerState | None = None
        self.run_ready = False
        self.shard: _Shard | None = None
        self.spawn_started = 0.0
        self.respawn_due = 0.0
        self.last_counter = -1
        self.last_progress = 0.0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class WorkerPool:
    """A supervised, persistent pool of experiment workers.

    Build one (or use the :func:`get_pool` registry) and call
    :meth:`run` repeatedly — workers, their interpreters, and their
    rebuilt plans survive across runs.  :meth:`close` (idempotent, also
    wired to ``atexit`` via :func:`shutdown_pools`) tears everything
    down; shared-memory segments are ExitStack-managed so they are
    released even on an exception mid-``__init__`` consumer.
    """

    def __init__(self, workers: int, config: PoolConfig | None = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.config = config or PoolConfig()
        self.cost_model = CostModel()
        # Long-lived interpreters must agree on hash() with each other
        # and with the parent.
        os.environ.setdefault("PYTHONHASHSEED", _PINNED_HASH_SEED)
        try:
            self._ctx = multiprocessing.get_context("forkserver")
        except ValueError:  # pragma: no cover - platform without forkserver
            self._ctx = multiprocessing.get_context("spawn")
        self._stack = contextlib.ExitStack()
        self._board = self._stack.enter_context(HeartbeatBoard(workers))
        self._stop_event = self._ctx.Event()
        self._members = [
            _Member(
                worker_id,
                RespawnBackoff(
                    base_s=self.config.respawn_base_s,
                    cap_s=self.config.respawn_cap_s,
                ),
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
    @property
    def warm(self) -> bool:
        """Whether any worker process is already alive (startup paid)."""
        return any(member.alive for member in self._members)

    def close(self) -> None:
        """Stop workers, release shared memory.  Idempotent."""
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
        self._stack.close()

    def _release_member(self, member: _Member) -> None:
        """Close a member's IPC handles (the process is handled by the
        caller) and reset its slots for a future spawn."""
        if member.conn is not None:
            try:
                member.conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        if member.ring is not None:
            member.ring.close()
        member.process = None
        member.conn = None
        member.ring = None
        member.assembler = None
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
        force: bool = False,
    ) -> RunOutcome:
        """Execute *plan* on the pool (or inline, when that's smarter).

        Same supervision surface and :class:`RunOutcome` contract as
        :func:`~repro.experiments.runner.run_experiment`; *force* skips
        the cost-model degradation decision (``executor="pool"``).
        """
        if self.closed:
            raise PoolError("worker pool is closed")
        source = _coerce_plan_source(plan, plan_source)
        started = monotonic_clock()
        journal: CheckpointJournal | None = None
        manifest: RunManifest | None = None
        resumed_results: dict[str, Any] = {}
        resumed_failed: set[str] = set()
        if run_dir is not None:
            run_dir = Path(run_dir)
            manifest, journal, resumed_results, resumed_failed = (
                prepare_checkpoint(plan, run_dir, resume)
            )

        pending = [
            index
            for index, spec in enumerate(plan.trials)
            if spec.key not in resumed_results
            and spec.key not in resumed_failed
        ]

        watchdog = Watchdog(deadline_s)
        checker = PoolStateChecker(len(plan.trials))
        ledger = PoisonLedger(self.config.poison_threshold)
        live_results: dict[str, Any] = {}
        live_failures: list[tuple[int, str, str]] = []
        failed_keys: set[str] = set()
        breaker_events: list[dict[str, Any]] = []
        breaker_state = "closed"
        breaker_skips = 0
        stop_skips = 0
        abort_status: str | None = None
        abort_error: Exception | None = None
        config_error: Exception | None = None
        longest_trial_s = 0.0
        degrade_reason: str | None = None
        pool_events: list[dict[str, Any]] = []
        respawns_this_run = 0
        reuses_before = self.stats["plan_reuses"]

        def _finish(
            status: str, result: Any = None, error: Exception | None = None
        ) -> RunOutcome:
            merged = _ordered_successes(plan, resumed_results, live_results)
            # Serial parity: abandoned-on-stop trials count as skipped
            # only for a deadline stop.
            skipped = breaker_skips + (
                stop_skips if status == STATUS_DEADLINE else 0
            )
            outcome = RunOutcome(
                plan=plan,
                status=status,
                result=result,
                error=error,
                run_dir=run_dir if run_dir is None else Path(run_dir),
                manifest=manifest,
                completed=len(merged),
                failed=len(live_failures) + len(resumed_failed),
                resumed=len(resumed_results),
                skipped=skipped,
                breaker_events=list(breaker_events),
                elapsed_s=monotonic_clock() - started,
                pool={
                    "workers": self.workers,
                    "mode": DEGRADED_SERIAL if degrade_reason else "pool",
                    "degraded": degrade_reason,
                    "respawns": respawns_this_run,
                    "plan_reuses": self.stats["plan_reuses"] - reuses_before,
                    "poisoned": list(ledger.poisoned),
                    "events": list(pool_events),
                },
            )
            if manifest is not None:
                manifest.status = status
                manifest.completed = outcome.completed
                manifest.failed = outcome.failed
                manifest.resumed = outcome.resumed
                manifest.skipped = outcome.skipped
                manifest.exit_code = outcome.exit_code
                manifest.breaker_events = list(breaker_events)
                manifest.breaker_state = breaker_state
                manifest.poisoned = list(ledger.poisoned)
                manifest.save(run_dir)
            return outcome

        def _terminal_finish() -> RunOutcome:
            merged = _ordered_successes(plan, resumed_results, live_results)
            accounted = (
                len(merged) + len(live_failures) + len(resumed_failed)
            )
            try:
                checker.final_audit(accounted, breaker_skips)
            except InvariantViolation as exc:
                return _finish(STATUS_INVARIANT, error=exc)
            if ledger.poisoned:
                reasons = "; ".join(
                    f"{key} ({ledger.reasons[key][-1]})"
                    for key in ledger.poisoned
                )
                error: Exception = PoolError(
                    f"{plan.name}: {len(ledger.poisoned)} trial(s) "
                    f"quarantined after repeatedly killing pool workers: "
                    f"{reasons}"
                )
                return _finish(STATUS_POISONED, error=error)
            if len(merged) < plan.min_successes:
                error = insufficient_error(
                    plan,
                    successes=len(merged),
                    failures=sorted(live_failures),
                    failed_total=len(live_failures) + len(resumed_failed),
                    skipped=breaker_skips,
                )
                return _finish(STATUS_INSUFFICIENT, error=error)
            status, result, error2 = resolve_finalize(plan, merged)
            return _finish(status, result=result, error=error2)

        def _run_inline(reason: str) -> RunOutcome:
            """The graceful-degradation path: the remaining trials run in
            the parent on the same journal/manifest — the serial loop,
            so the artifact is byte-identical to a serial run's."""
            nonlocal degrade_reason, stop_skips, breaker_skips, breaker_state
            degrade_reason = reason
            self.stats["degraded"] += 1
            remaining = [
                index
                for index in pending
                if plan.trials[index].key not in live_results
                and plan.trials[index].key not in failed_keys
                and not ledger.is_poisoned(plan.trials[index].key)
            ]
            checker.note_dispatch(_INLINE_WORKER, remaining)
            injector = (
                plan.fault_plan.build_injector()
                if plan.fault_plan is not None
                else None
            )
            circuit = CircuitBreaker(breaker)

            def skip_trial(local: int) -> str | None:
                return circuit.gate(remaining[local])

            def on_trial_end(
                local: int,
                result: Any,
                failure: TrialFailure | None,
                elapsed_s: float,
            ) -> None:
                index = remaining[local]
                key = plan.trials[index].key
                watchdog.note_trial(elapsed_s)
                self.cost_model.observe(plan.name, elapsed_s)
                circuit.record(index, failure is None)
                checker.note_result(index, _INLINE_WORKER)
                if failure is None:
                    live_results[key] = result
                    if journal is not None:
                        journal.record_success(
                            index, key, result, elapsed_s=elapsed_s
                        )
                else:
                    live_failures.append(
                        (index, type(failure.error).__name__,
                         str(failure.error))
                    )
                    failed_keys.add(key)
                    if journal is not None:
                        journal.record_failure(
                            index, key, failure.error, elapsed_s=elapsed_s
                        )

            token = _set_worker_context(WorkerContext(fault_injector=injector))
            inline_status: str | None = None
            inline_error: Exception | None = None
            guarded: Any = None
            try:
                guarded = run_guarded_trials(
                    [plan.trials[index].fn for index in remaining],
                    catch=catch,
                    min_successes=0,
                    label=f"{plan.name}[{DEGRADED_SERIAL}]",
                    skip_trial=skip_trial,
                    stop=watchdog.check,
                    on_trial_end=on_trial_end,
                    fault_injector=injector,
                )
            except KeyboardInterrupt:
                inline_status = STATUS_INTERRUPTED
            except InvariantViolation as exc:
                inline_status = STATUS_INVARIANT
                inline_error = exc
            finally:
                _set_worker_context(token)
            breaker_skips += circuit.skipped
            breaker_events.extend(circuit.events)
            if (
                _BREAKER_SEVERITY.get(circuit.state.value, 0)
                > _BREAKER_SEVERITY.get(breaker_state, 0)
            ):
                breaker_state = circuit.state.value
            checker.note_unassign(remaining)
            if inline_status is not None:
                return _finish(inline_status, error=inline_error)
            if guarded is not None and guarded.stop_reason == STOP_DEADLINE:
                stop_skips += guarded.skipped
                return _finish(STATUS_DEADLINE)
            return _terminal_finish()

        def _run_pooled() -> RunOutcome | None:
            """Supervised pooled execution; ``None`` means "degrade to
            inline now" (``degrade_reason`` is set)."""
            nonlocal abort_status, abort_error, config_error, degrade_reason
            nonlocal respawns_this_run, longest_trial_s
            nonlocal stop_skips, breaker_skips, breaker_state
            self._run_seq += 1
            run_id = self._run_seq
            self.stats["runs"] += 1
            if self._stop_event.is_set():
                self._stop_event.clear()
            source_blob = pickle.dumps(source, protocol=4)
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
                self._board.reset(member.worker_id)
                ring = self._stack.enter_context(
                    ShmRing.create(self._ctx.Lock(), self.config.ring_bytes)
                )
                parent_conn, child_conn = self._ctx.Pipe()
                process = self._ctx.Process(
                    target=_pool_worker_main,
                    args=(
                        member.worker_id, child_conn,
                        ring.name, ring.lock, ring.capacity,
                        self._board.name, self.workers,
                        self._stop_event, self.config,
                    ),
                    daemon=True,
                    name=f"repro-pool-{member.worker_id}",
                )
                process.start()
                child_conn.close()
                member.process = process
                member.conn = parent_conn
                member.ring = ring
                member.assembler = FrameAssembler()
                member.run_ready = False
                member.state = WorkerState.SPAWNING
                checker.note_worker(
                    member.worker_id, WorkerState.SPAWNING.value, "spawn"
                )
                member.spawn_started = monotonic_clock()
                member.last_counter = -1
                member.last_progress = member.spawn_started
                if not _send(member, run_cmd):
                    _fail(member, "pipe closed at spawn")

            def _arm(member: _Member) -> None:
                """Reuse a warm worker for this run: discard any stale
                stream bytes from a previous aborted run, re-announce."""
                try:
                    while member.ring.read():
                        pass
                except PoolProtocolError:
                    _fail(member, "stale ring unreadable at re-arm")
                    return
                member.assembler = FrameAssembler()
                self._board.reset(member.worker_id)
                member.run_ready = False
                member.state = WorkerState.SPAWNING
                checker.note_worker(
                    member.worker_id, WorkerState.SPAWNING.value, "re-arm"
                )
                member.spawn_started = monotonic_clock()
                member.last_counter = -1
                member.last_progress = member.spawn_started
                if not _send(member, run_cmd):
                    _fail(member, "pipe closed at re-arm")

            def _fail(member: _Member, reason: str) -> None:
                """Kill and (eventually) respawn a failed worker; blame,
                strike, and requeue its unacknowledged trials."""
                nonlocal respawns_this_run, next_shard_id
                heartbeat = self._board.read(member.worker_id)
                blamed_key: str | None = None
                shard = member.shard
                if shard is not None:
                    remaining = shard.unfinished()
                    checker.note_unassign(remaining)
                    blame: int | None = None
                    if (
                        heartbeat.shard == shard.shard_id
                        and heartbeat.trial in remaining
                    ):
                        blame = heartbeat.trial
                    elif remaining:
                        blame = remaining[0]
                    if blame is not None:
                        blamed_key = plan.trials[blame].key
                        suppressed.add(blame)
                        if ledger.strike(blamed_key, reason):
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
                nonlocal longest_trial_s, breaker_state, breaker_skips
                nonlocal stop_skips
                tag = message[0]
                if tag == _MSG_TRIAL:
                    (_, wid, rid, index, key, ok, payload,
                     error_type, error_text, elapsed_s) = message
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
                    watchdog.note_trial(elapsed_s)
                    longest_trial_s = max(longest_trial_s, elapsed_s)
                    self.cost_model.observe(plan.name, elapsed_s)
                    if member.shard is not None:
                        member.shard.received.add(index)
                    checker.note_result(index, wid)
                    if ok:
                        live_results[key] = payload
                        if journal is not None:
                            journal.record_success(
                                index, key, payload, elapsed_s=elapsed_s
                            )
                    else:
                        live_failures.append((index, error_type, error_text))
                        failed_keys.add(key)
                        if journal is not None:
                            journal.record_failure_info(
                                index, key, error_type, error_text,
                                elapsed_s=elapsed_s,
                            )
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
                    if member.state in (
                        WorkerState.SPAWNING, WorkerState.SUSPECT
                    ):
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
                    stop_skips += summary["stop_skipped"]
                    breaker_skips += summary["breaker_skipped"]
                    breaker_events.extend(summary["breaker_events"])
                    if (
                        _BREAKER_SEVERITY.get(summary["breaker_state"], 0)
                        > _BREAKER_SEVERITY.get(breaker_state, 0)
                    ):
                        breaker_state = summary["breaker_state"]
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
                """One supervision pass over one member: drain its ring,
                then judge liveness, heartbeat freshness, and deadlines."""
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
                try:
                    while True:
                        data = member.ring.read()
                        if not data:
                            break
                        for payload in member.assembler.feed(data):
                            try:
                                message = pickle.loads(payload)
                            # Framed bytes verified the CRC but may still
                            # be hostile garbage; unpicklable == corrupt.
                            except Exception as exc:  # repro-lint: ignore[EXC001]
                                raise PoolProtocolError(
                                    f"unpicklable frame: {exc}"
                                ) from exc
                            fail_reason = _handle(member, message)
                            if fail_reason or config_error is not None:
                                break
                        if fail_reason or config_error is not None:
                            break
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
                heartbeat = self._board.read(member.worker_id)
                if heartbeat.counter != member.last_counter:
                    member.last_counter = heartbeat.counter
                    member.last_progress = now
                    if member.state is WorkerState.SUSPECT:
                        member.state = WorkerState.HEALTHY
                        checker.note_worker(
                            member.worker_id, WorkerState.HEALTHY.value,
                            "heartbeat resumed",
                        )
                if member.state is WorkerState.SPAWNING:
                    if now - member.spawn_started > self.config.spawn_timeout_s:
                        _fail(
                            member,
                            f"spawn timeout after "
                            f"{self.config.spawn_timeout_s:g}s",
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
                        elif watchdog.check() == STOP_DEADLINE:
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
                            drain_deadline = (
                                monotonic_clock() + self.config.drain_s
                            )
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
                    stop_skips += leftover
                _teardown(kill_busy_only=abort_status is None)
                if abort_status == STATUS_INVARIANT:
                    return _finish(STATUS_INVARIANT, error=abort_error)
                if abort_status == STATUS_INTERRUPTED:
                    return _finish(STATUS_INTERRUPTED)
                if abort_status == STATUS_DEADLINE:
                    return _finish(STATUS_DEADLINE)
                return _terminal_finish()

        with sigterm_as_interrupt():
            if not pending:
                return _terminal_finish()
            if not force:
                if self.broken:
                    return _run_inline(
                        f"pool marked broken: {self.broken_reason}"
                    )
                pays, reason = self.cost_model.parallel_pays(
                    plan.name,
                    len(pending),
                    self.workers,
                    os.cpu_count() or 1,
                    self.warm,
                )
                if not pays:
                    return _run_inline(reason)
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


def run_pool_experiment(
    plan: ExperimentPlan | None = None,
    *,
    plan_source: Callable[[], ExperimentPlan] | None = None,
    workers: int = 2,
    run_dir: str | Path | None = None,
    resume: bool = False,
    deadline_s: float | None = None,
    breaker: BreakerConfig | None = None,
    catch: tuple[type[Exception], ...] = (ReproError,),
    executor: str = "auto",
    config: PoolConfig | None = None,
) -> RunOutcome:
    """Execute *plan* on the process-wide persistent pool.

    Prefer ``run_experiment(..., workers=N, executor="auto"|"pool")``,
    which delegates here.  ``executor="pool"`` forces pooled execution
    even when the cost model would degrade to the inline serial loop.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if plan is None:
        if plan_source is None:
            raise ValueError(
                "run_pool_experiment needs a plan or a plan_source"
            )
        plan = plan_source()
    pool = get_pool(workers, config=config)
    return pool.run(
        plan,
        plan_source=plan_source,
        run_dir=run_dir,
        resume=resume,
        deadline_s=deadline_s,
        breaker=breaker,
        catch=catch,
        force=(executor == "pool"),
    )
