"""The service proper: supervision, accounting, drain, resume.

:class:`AttackService` owns one run of the always-on service: it builds
the device fleet, spawns the dispatcher / overload-controller /
load-feeder tasks on the device-time loop, supervises every session to
a terminal exit, and proves the conservation law before returning a
:class:`ServiceReport`.

One exit: :meth:`AttackService._end` is the only code that ends a
session, whether an offer is rejected, a session drains before it ran,
or a supervisor joins a session that ran.  ``_feed`` counts each offer
as it spawns it, so ``_main`` waits for the books to balance.

Supervision follows the worker pool's containment philosophy without a
broad ``except`` anywhere: a session converts its *typed* failures into
``failed`` exits itself; anything untyped escapes its task, and the
supervisor reads ``task.exception()`` — never re-raising — to
quarantine the poisoned session while the fleet keeps serving.

Graceful drain: ``request_drain()`` (the SIGTERM hook — safe to call
from a signal handler, it only sets a flag) stops new admissions with a
typed ``draining`` rejection, lets active sessions stop at their next
round boundary, and checkpoints every admitted-but-unfinished session
spec plus the unoffered tail of the schedule through
:func:`repro.experiments.checkpoint.atomic_write_json`.  A later run
with ``resume_from=`` verifies the config hash
(:class:`~repro.errors.ResumeMismatchError` on drift), re-enters the
checkpointed sessions as ``resumed`` (they skip the token bucket — they
already paid), and re-offers the unoffered tail, so the logical run
loses and double-counts nothing — the restart-resume equivalence test
checks exactly that, session id by session id.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.errors import (
    AdmissionRejected,
    CheckpointError,
    ResumeMismatchError,
    ServiceError,
)
from repro.experiments.checkpoint import atomic_write_json
from repro.experiments.runner import (
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_OVERLOAD,
)
from repro.faults.sites import SERVICE_SITES, SITE_OWNERS
from repro.invariants.service import (
    EXIT_CHECKPOINTED,
    EXIT_COMPLETED,
    EXIT_FAILED,
    EXIT_QUARANTINED,
    EXIT_REJECTED,
    EXIT_SHED,
    STATE_ADMITTED,
    STATE_CLOSED,
    STATE_OFFERED,
    ServiceStateChecker,
)
from repro.service.admission import AdmissionController
from repro.service.config import ServiceConfig
from repro.service.controller import OverloadController
from repro.service.devices import DeviceFleet
from repro.service.loop import (
    BoundedQueue,
    DeviceTimeLoop,
    Task,
    TaskCancelled,
    VirtualEvent,
)
from repro.service.session import AttackSession, SessionSpec

#: File name of the drain checkpoint inside the checkpoint directory.
CHECKPOINT_NAME = "service-checkpoint.json"

_STOP = object()


@dataclass
class ServiceAccounting:
    """Exit-path bookkeeping; one increment per session, exactly."""

    offered: int = 0
    resumed: int = 0
    rejected: dict[str, int] = field(default_factory=dict)
    completed: int = 0
    shed: int = 0
    failed: dict[str, int] = field(default_factory=dict)
    quarantined: int = 0
    checkpointed: int = 0
    backpressure_events: int = 0

    @property
    def rejected_total(self) -> int:
        return sum(self.rejected.values())

    @property
    def failed_total(self) -> int:
        return sum(self.failed.values())

    @property
    def terminal_total(self) -> int:
        return (
            self.rejected_total
            + self.completed
            + self.shed
            + self.failed_total
            + self.quarantined
            + self.checkpointed
        )

    def balances(self) -> bool:
        """The conservation law this run must satisfy exactly."""
        return self.offered + self.resumed == self.terminal_total

    def to_json(self) -> dict[str, Any]:
        return {
            "offered": self.offered,
            "resumed": self.resumed,
            "rejected": dict(sorted(self.rejected.items())),
            "rejected_total": self.rejected_total,
            "completed": self.completed,
            "shed": self.shed,
            "failed": dict(sorted(self.failed.items())),
            "failed_total": self.failed_total,
            "quarantined": self.quarantined,
            "checkpointed": self.checkpointed,
            "backpressure_events": self.backpressure_events,
        }


@dataclass
class ServiceReport:
    """What one service run can prove about itself."""

    status: str  # "completed" | "drained" | "overloaded"
    accounting: ServiceAccounting
    latency_cycles: dict[str, float]  # p50/p99/p999/mean over completed
    virtual_cycles: int
    mode_transitions: list[tuple[int, str]]
    lane_stats: dict[str, int]
    unacknowledged_faults: dict[str, int]
    checkpoint_path: str = ""
    session_ids: dict[str, list[str]] = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        if self.status == "drained":
            return EXIT_INTERRUPTED
        if self.status == "overloaded":
            return EXIT_OVERLOAD
        return EXIT_OK

    def to_json(self) -> dict[str, Any]:
        return {
            "status": self.status,
            "accounting": self.accounting.to_json(),
            "latency_cycles": self.latency_cycles,
            "virtual_cycles": self.virtual_cycles,
            "mode_transitions": [
                [cycles, mode] for cycles, mode in self.mode_transitions
            ],
            "lane_stats": self.lane_stats,
            "unacknowledged_faults": self.unacknowledged_faults,
            "checkpoint_path": self.checkpoint_path,
            "session_ids": {
                path: list(ids) for path, ids in sorted(self.session_ids.items())
            },
        }


def _percentiles(latencies: "list[int]") -> dict[str, float]:
    if not latencies:
        return {"p50": 0.0, "p99": 0.0, "p999": 0.0, "mean": 0.0}
    arr = np.asarray(latencies, dtype=np.int64)
    return {
        "p50": float(np.percentile(arr, 50)),
        "p99": float(np.percentile(arr, 99)),
        "p999": float(np.percentile(arr, 99.9)),
        "mean": float(arr.mean()),
    }


class AttackService:
    """One run of the always-on session service."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.loop = DeviceTimeLoop()
        self.checker = ServiceStateChecker()
        self.accounting = ServiceAccounting()
        self.injector = None
        if config.fault_plan is not None:
            self.injector = config.fault_plan.build_injector()
            for site in SERVICE_SITES:
                self.injector.register_site(site, SITE_OWNERS[site][0])
        self._chaos: "Any | None" = None
        self._drain_flag = False
        self._ran = False
        self._fatal: "BaseException | None" = None
        self._latencies: list[int] = []
        self._checkpoint_specs: list[SessionSpec] = []
        self._pending_specs: list[SessionSpec] = []
        self._ids: dict[str, list[str]] = {}
        # Built in run(); annotated here for readability.
        self.fleet: DeviceFleet
        self.admission: AdmissionController
        self.controller: OverloadController
        self.run_queue: BoundedQueue

    # ------------------------------------------------------------------
    # External control surface
    # ------------------------------------------------------------------
    @property
    def drain_requested(self) -> bool:
        return self._drain_flag

    def request_drain(self) -> None:
        """Begin graceful drain.  Signal-handler safe: only sets a flag."""
        self._drain_flag = True

    def kill_session(self, session_id: str, reason: str = "killed") -> bool:
        """Chaos hook: cancel an active session (counted as failed)."""
        entry = self._active.get(session_id)
        if entry is None:
            return False
        session, task = entry
        session.cancel_reason = reason
        task.cancel()
        return True

    @property
    def active_session_ids(self) -> "list[str]":
        return sorted(self._active)

    # ------------------------------------------------------------------
    # Run / resume
    # ------------------------------------------------------------------
    def run(
        self,
        schedule: Sequence[SessionSpec] = (),
        *,
        chaos: "Any | None" = None,
        resume_from: "Path | str | None" = None,
        checkpoint_dir: "Path | str | None" = None,
    ) -> ServiceReport:
        """Serve *schedule* (plus any resumed checkpoint) to completion.

        *chaos*, if given, is an async callable taking this service; it
        is spawned on the device-time loop alongside the dispatcher and
        cancelled at shutdown (the load generator's kill lane).
        """
        if self._ran:
            raise ServiceError("an AttackService instance runs once")
        self._ran = True
        self._chaos = chaos
        resumed: list[SessionSpec] = []
        fresh = sorted(schedule, key=lambda s: (s.arrival_cycles, s.session_id))
        if resume_from is not None:
            manifest = self._load_manifest(Path(resume_from))
            resumed = [
                SessionSpec.from_json(raw) for raw in manifest["checkpointed"]
            ]
            fresh = [
                SessionSpec.from_json(raw) for raw in manifest["pending"]
            ] + fresh
            self.loop = DeviceTimeLoop(start_cycles=manifest["virtual_now"])
        try:
            self.loop.run(self._main(fresh, resumed))
        except ServiceError:
            # A background crash can starve the loop into its deadlock
            # detector; the recorded cause is the real story.
            if self._fatal is not None:
                raise self._fatal from None
            raise
        return self._finalize(checkpoint_dir)

    def _load_manifest(self, path: Path) -> dict[str, Any]:
        if not path.exists():
            raise CheckpointError(f"no service checkpoint at {path}")
        manifest = json.loads(path.read_text())
        expected = self.config.digest()
        actual = manifest.get("config_hash")
        if actual != expected:
            raise ResumeMismatchError(
                "service checkpoint was produced by a different config",
                expected=expected,
                actual=actual,
            )
        return manifest

    def _finalize(self, checkpoint_dir: "Path | str | None") -> ServiceReport:
        acct = self.accounting
        unacked: dict[str, int] = {}
        injectors = list(self.fleet.injectors())
        if self.injector is not None:
            injectors.append(self.injector)
        for injector in injectors:
            for site, count in injector.unacknowledged().items():
                unacked[site] = unacked.get(site, 0) + count
        checkpoint_path = ""
        if self._drain_flag:
            target = Path(checkpoint_dir or ".") / CHECKPOINT_NAME
            atomic_write_json(
                target,
                {
                    "config_hash": self.config.digest(),
                    "seed": self.config.seed,
                    "virtual_now": self.loop.now,
                    "accounting": acct.to_json(),
                    "checkpointed": [
                        spec.to_json() for spec in self._checkpoint_specs
                    ],
                    "pending": [
                        spec.to_json() for spec in self._pending_specs
                    ],
                },
            )
            checkpoint_path = str(target)
            status = "drained"
        elif (
            self.controller.circuit_opened > 0
            and acct.offered > 0
            and acct.completed < self.config.completion_floor * acct.offered
        ):
            status = "overloaded"
        else:
            status = "completed"
        lane_stats = {
            "lanes": len(self.fleet.lanes),
            "lanes_rebuilt": len(self.fleet.quarantined),
            "rounds_served": sum(
                lane.rounds_served
                for lane in (*self.fleet.lanes, *self.fleet.quarantined)
            ),
            "recalibrations": sum(
                lane.recalibrations
                for lane in (*self.fleet.lanes, *self.fleet.quarantined)
            ),
            "queue_high_water": self.run_queue.high_water,
        }
        return ServiceReport(
            status=status,
            accounting=acct,
            latency_cycles=_percentiles(self._latencies),
            virtual_cycles=self.loop.now,
            mode_transitions=list(self.controller.transitions),
            lane_stats=lane_stats,
            unacknowledged_faults=unacked,
            checkpoint_path=checkpoint_path,
            session_ids=dict(self._ids),
        )

    # ------------------------------------------------------------------
    # The device-time main
    # ------------------------------------------------------------------
    async def _main(
        self, fresh: "list[SessionSpec]", resumed: "list[SessionSpec]"
    ) -> None:
        cfg = self.config
        self.fleet = DeviceFleet(
            self.loop,
            self.checker,
            lanes=cfg.lanes,
            seed=cfg.seed,
            calibration_samples=cfg.lane_calibration_samples,
            policy=cfg.retry_policy,
            injector=self.injector,
            lane_fault_plan=cfg.fault_plan,
        )
        self.admission = AdmissionController(cfg, self.checker, self.injector)
        self.controller = OverloadController(cfg)
        self.run_queue = BoundedQueue(self.loop, cfg.queue_capacity)
        self._active: dict[str, tuple[AttackSession, Task]] = {}
        self._done = VirtualEvent(self.loop)
        self._slot_free = VirtualEvent(self.loop)
        ticker = self.loop.spawn(
            self._guard(self._controller_loop()), name="controller"
        )
        dispatcher = self.loop.spawn(self._dispatcher(), name="dispatcher")
        chaos_task = None
        if self._chaos is not None:
            chaos_task = self.loop.spawn(
                self._guard(self._chaos(self)), name="chaos"
            )
        await self._feed(fresh, resumed)
        while not self.accounting.balances() and self._fatal is None:
            self._done.clear()
            await self._done.wait()
        await self.run_queue.put(_STOP)
        await self.loop.join(dispatcher)
        for background in (ticker, chaos_task):
            if background is not None:
                background.cancel()
                await self.loop.join(background)
        if self._fatal is not None:
            raise self._fatal
        self.checker.final_audit(
            offered=self.accounting.offered,
            resumed=self.accounting.resumed,
            rejected=self.accounting.rejected_total,
            completed=self.accounting.completed,
            shed=self.accounting.shed,
            failed=self.accounting.failed_total,
            quarantined=self.accounting.quarantined,
            checkpointed=self.accounting.checkpointed,
            in_flight=len(self._active),
        )

    async def _feed(
        self, fresh: "list[SessionSpec]", resumed: "list[SessionSpec]"
    ) -> None:
        # Resumed sessions re-enter first: they were already mid-flight
        # when the previous run drained.
        for index, spec in enumerate(resumed):
            if self._drain_flag:
                self._pending_specs.extend(resumed[index:])
                self._pending_specs.extend(fresh)
                return
            self.accounting.resumed += 1
            self.loop.spawn(
                self._guard(self._offer(spec, resumed=True)),
                name=f"offer-{spec.session_id}",
            )
        for index, spec in enumerate(fresh):
            if self._drain_flag:
                self._pending_specs.extend(fresh[index:])
                return
            await self.loop.sleep_until(spec.arrival_cycles)
            if self._drain_flag:
                self._pending_specs.extend(fresh[index:])
                return
            self.accounting.offered += 1
            self.loop.spawn(
                self._guard(self._offer(spec, resumed=False)),
                name=f"offer-{spec.session_id}",
            )

    # ------------------------------------------------------------------
    # The one exit
    # ------------------------------------------------------------------
    def _end(
        self,
        spec: SessionSpec,
        exit_path: str,
        reason: str = "",
        session: "AttackSession | None" = None,
    ) -> None:
        """End *spec*'s session by *exit_path*: the only code that does.

        Narrates ``closed`` and the exit, counts the exit (by *reason*
        for ``rejected`` and ``failed``) and records the id.  A session
        that ran passes itself as *session*: a completion's latency
        feeds the controller, a checkpoint carries ``rounds_done``
        forward, and the tenant slot (charged the session's device
        cycles) and the concurrency slot are freed.
        """
        sid = spec.session_id
        acct = self.accounting
        self.checker.note_state(sid, STATE_CLOSED)
        self.checker.note_exit(sid, exit_path)
        if exit_path == EXIT_REJECTED:
            acct.rejected[reason] = acct.rejected.get(reason, 0) + 1
        elif exit_path == EXIT_FAILED:
            acct.failed[reason] = acct.failed.get(reason, 0) + 1
        elif exit_path == EXIT_COMPLETED:
            acct.completed += 1
        elif exit_path == EXIT_SHED:
            acct.shed += 1
        elif exit_path == EXIT_QUARANTINED:
            acct.quarantined += 1
        else:
            acct.checkpointed += 1
            if session is not None:
                spec = replace(spec, rounds_done=session.rounds_done)
            self._checkpoint_specs.append(spec)
        if self.config.collect_session_ids:
            self._ids.setdefault(exit_path, []).append(sid)
        if session is not None:
            if exit_path == EXIT_COMPLETED:
                latency = self.loop.now - session.admitted_at
                self._latencies.append(latency)
                self.controller.observe_latency(latency)
            self.admission.release(spec, session.device_cycles)
            del self._active[sid]
            self._slot_free.set()
        if acct.balances():
            self._done.set()

    # ------------------------------------------------------------------
    # Offer path (admission + backpressure)
    # ------------------------------------------------------------------
    async def _offer(self, spec: SessionSpec, resumed: bool) -> None:
        sid = spec.session_id
        self.checker.note_state(sid, STATE_OFFERED)
        for attempt in range(self.config.offer_retries + 1):
            if self._drain_flag:
                # A resumed session drained again before running is
                # carried forward untouched; a fresh one is turned away.
                if resumed:
                    self._end(spec, EXIT_CHECKPOINTED)
                else:
                    self._end(spec, EXIT_REJECTED, "draining")
                return
            if not resumed and not self.controller.admissions_open:
                self._end(spec, EXIT_REJECTED, "circuit-open")
                return
            try:
                self.admission.admit(spec, self.loop.now, resumed=resumed)
            except AdmissionRejected as err:
                self._end(spec, EXIT_REJECTED, err.reason or "rate-limit")
                return
            if self.run_queue.try_put(spec):
                self.checker.note_state(sid, STATE_ADMITTED)
                self.checker.note_queue(
                    len(self.run_queue), self.run_queue.capacity
                )
                return
            # Backpressure: undo the admission, tell the generator, and
            # back off inside the bounded retry budget.
            self.admission.release(spec, 0)
            self.accounting.backpressure_events += 1
            if attempt < self.config.offer_retries:
                await self.loop.sleep_cycles(
                    self.config.offer_backoff_cycles * (attempt + 1)
                )
        self._end(spec, EXIT_REJECTED, "queue-full")

    # ------------------------------------------------------------------
    # Dispatch + supervision
    # ------------------------------------------------------------------
    async def _dispatcher(self) -> None:
        while True:
            item = await self.run_queue.get()
            if item is _STOP:
                return
            spec: SessionSpec = item
            self.checker.note_queue(
                len(self.run_queue), self.run_queue.capacity
            )
            if self._drain_flag:
                # Queued but never ran: release the tenant slot and
                # checkpoint directly — cheaper than a lane round-trip.
                self.admission.release(spec, 0)
                self._end(spec, EXIT_CHECKPOINTED)
                continue
            while len(self._active) >= self.config.max_concurrent_sessions:
                self._slot_free.clear()
                await self._slot_free.wait()
            session = AttackSession(spec, self)
            task = self.loop.spawn(
                session.run(), name=f"session-{spec.session_id}"
            )
            self._active[spec.session_id] = (session, task)
            self.loop.spawn(
                self._guard(self._supervise(session, task)),
                name=f"supervise-{spec.session_id}",
            )

    async def _supervise(
        self, session: AttackSession, task: Task
    ) -> None:
        """End *session* at the instant its task finishes, however."""
        await self.loop.join(task)
        exc = task.exception()
        if task.cancelled():
            reason = session.cancel_reason or "cancelled"
            exit_path = EXIT_SHED if reason == "shed" else EXIT_FAILED
        elif exc is not None:
            # Poisoned: an untyped error escaped the session's own
            # containment.  Quarantine the session, keep the fleet.
            exit_path, reason = EXIT_QUARANTINED, type(exc).__name__
        else:
            exit_path, reason = task.result()
        self._end(session.spec, exit_path, reason, session)

    # ------------------------------------------------------------------
    # The overload controller's tick
    # ------------------------------------------------------------------
    async def _guard(self, coro: "Any") -> None:
        """Record a background coroutine's crash instead of losing it.

        An unretrieved task exception would otherwise surface much
        later as an opaque device-time deadlock; recording it lets the
        main coroutine (or ``run()``'s deadlock fallback) re-raise the
        real failure.
        """
        try:
            await coro
        except TaskCancelled:
            raise
        except BaseException as exc:  # repro-lint: ignore[EXC001]
            # Deliberate: recorded here, re-raised by the main coroutine.
            if self._fatal is None:
                self._fatal = exc
            self._done.set()
            self._slot_free.set()

    async def _controller_loop(self) -> None:
        while True:
            await self.loop.sleep_cycles(self.config.controller_tick_cycles)
            self.controller.observe_queue(
                len(self.run_queue), self.run_queue.capacity
            )
            self.controller.update(self.loop.now)
            if self.controller.shedding:
                self._shed_pass()

    def _shed_pass(self) -> None:
        sheddable = [
            (session.spec.priority, sid)
            for sid, (session, _task) in self._active.items()
            if not session.cancel_reason
        ]
        if not sheddable:
            return
        sheddable.sort()
        floor = sheddable[0][0]
        # One priority band per tick: shedding above the floor while
        # floor-priority sessions remain is the unfair shed the checker
        # trips on.  If pressure persists, the next tick's floor rises.
        victims = [entry for entry in sheddable if entry[0] == floor]
        quota = self.controller.shed_quota(len(sheddable))
        for priority, sid in victims[:quota]:
            session, task = self._active[sid]
            session.cancel_reason = "shed"
            self.checker.note_shed(sid, priority, floor)
            task.cancel()
