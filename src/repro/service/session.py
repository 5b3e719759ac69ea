"""One attack session: an async state machine with bounded budgets.

A session is the service's unit of work: a tenant's request to run a
DevTLB prime+probe observation of ``probe_rounds`` rounds on some lane
of the device fleet.  Its lifecycle is

    ADMITTED → CALIBRATING → ACTIVE → DRAINING → CLOSED

where DRAINING is entered only on graceful drain (the session stops at
a round boundary and its remaining work is checkpointed) and CLOSED is
reached from any live state (completion, deadline, shed, kill,
quarantine).  Every transition is narrated to the
``ServiceStateChecker``, which enforces the legality table.  The
session narrates every state but CLOSED: :meth:`AttackSession.run`
returns ``(exit_path, reason)``, and the service's one exit,
``AttackService._end``, closes the session when its supervisor joins
the task (a shed, kill or quarantine ends the task without a return).

Budgets, not hope, bound every failure mode:

* **deadline** — ``spec.deadline_cycles`` of device time from
  admission; a stalled round (the ``service_session_stall`` fault
  fires here, in this module, per ``SITE_OWNERS``) is detected at the
  next boundary instead of wedging a lane;
* **retries** — lane revocations and transient attack errors retry
  under the :class:`~repro.core.calibration.CalibrationPolicy` budget
  (``max_attempts`` attempts, backoff growing by ``sample_growth``),
  the same bounded-retry machinery calibration has used since PR 1;
* **containment** — expected failures are :class:`~repro.errors
  .ReproError` and close the session as ``failed``; anything else
  escapes to the supervisor, which quarantines the session without
  taking down the fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, TYPE_CHECKING

from repro.errors import (
    CalibrationError,
    CompletionTimeoutError,
    LaneRevokedError,
    QueueFullError,
    SessionDeadlineExceeded,
    TranslationFault,
)
from repro.faults.plan import FaultSite
from repro.invariants.service import (
    EXIT_CHECKPOINTED,
    EXIT_COMPLETED,
    EXIT_FAILED,
    STATE_ACTIVE,
    STATE_CALIBRATING,
    STATE_DRAINING,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.service.app import AttackService

#: Stall duration applied when a ``service_session_stall`` spec carries
#: no ``magnitude_cycles`` of its own.
DEFAULT_STALL_CYCLES = 1_000_000

#: Transient attack-layer errors a session retries inside its budget
#: (anything else typed closes the session as failed immediately).
_RETRYABLE = (
    LaneRevokedError,
    CalibrationError,
    CompletionTimeoutError,
    QueueFullError,
    TranslationFault,
)


@dataclass(frozen=True)
class SessionSpec:
    """The immutable description of one offered session.

    ``rounds_done`` is zero for fresh offers and carries completed
    progress for sessions resumed from a drain checkpoint — the spec is
    the checkpoint wire format.
    """

    session_id: str
    tenant: str
    priority: int
    arrival_cycles: int
    probe_rounds: int = 4
    probes_per_round: int = 8
    idle_us: float = 10.0
    deadline_cycles: int = 80_000_000
    rounds_done: int = 0

    def to_json(self) -> dict[str, Any]:
        return {
            "session_id": self.session_id,
            "tenant": self.tenant,
            "priority": self.priority,
            "arrival_cycles": self.arrival_cycles,
            "probe_rounds": self.probe_rounds,
            "probes_per_round": self.probes_per_round,
            "idle_us": self.idle_us,
            "deadline_cycles": self.deadline_cycles,
            "rounds_done": self.rounds_done,
        }

    @classmethod
    def from_json(cls, raw: dict[str, Any]) -> "SessionSpec":
        return cls(
            session_id=raw["session_id"],
            tenant=raw["tenant"],
            priority=raw["priority"],
            arrival_cycles=raw["arrival_cycles"],
            probe_rounds=raw["probe_rounds"],
            probes_per_round=raw["probes_per_round"],
            idle_us=raw["idle_us"],
            deadline_cycles=raw["deadline_cycles"],
            rounds_done=raw["rounds_done"],
        )


class AttackSession:
    """Drives one :class:`SessionSpec` through its lifecycle."""

    def __init__(self, spec: SessionSpec, service: "AttackService") -> None:
        self.spec = spec
        self._svc = service
        self.admitted_at = service.loop.now
        self.device_cycles = 0
        #: Set by the service before a deliberate cancel so the
        #: supervisor can attribute the cancellation (shed/kill/drain).
        self.cancel_reason = ""
        # Progress that survives a retryable mid-attempt failure (a
        # revoked lane does not erase completed rounds), and a cancel.
        self.rounds_done = spec.rounds_done
        self.calibrated = False

    # ------------------------------------------------------------------
    def _set_state(self, state: str) -> None:
        self._svc.checker.note_state(self.spec.session_id, state)

    def _check_deadline(self) -> None:
        elapsed = self._svc.loop.now - self.admitted_at
        if elapsed > self.spec.deadline_cycles:
            raise SessionDeadlineExceeded(
                session_id=self.spec.session_id,
                deadline_cycles=self.spec.deadline_cycles,
                elapsed_cycles=elapsed,
            )

    async def _stall_opportunity(self) -> None:
        """The ``service_session_stall`` injection point (round boundary)."""
        injector = self._svc.injector
        if injector is None:
            return
        event = injector.fire(
            FaultSite.SERVICE_SESSION_STALL, timestamp=self._svc.loop.now
        )
        if event is None:
            return
        stall = event.magnitude_cycles or DEFAULT_STALL_CYCLES
        # Handled = the stall is absorbed into device time where the
        # deadline budget (checked at this same boundary) can see it.
        # Acknowledged *before* parking so a chaos kill landing inside
        # the stall cannot strand the event unacknowledged.
        injector.acknowledge(event, "stall-absorbed-into-deadline-budget")
        await self._svc.loop.sleep_cycles(stall)

    # ------------------------------------------------------------------
    async def run(self) -> tuple[str, str]:
        """The state machine; returns ``(exit_path, reason)``.

        Raises nothing typed — :class:`~repro.errors.ReproError`
        failures are converted into ``failed`` exits here.  Anything
        untyped escapes to the supervisor's quarantine path.  The
        session never closes itself: the service's ``_end`` narrates
        ``closed`` when the supervisor joins this task.
        """
        svc = self._svc
        policy = svc.config.retry_policy
        attempts = 0
        while True:
            try:
                return await self._attempt()
            except SessionDeadlineExceeded:
                return EXIT_FAILED, "deadline"
            except _RETRYABLE as err:
                attempts += 1
                if attempts >= policy.max_attempts:
                    return (
                        EXIT_FAILED, f"retries-exhausted:{type(err).__name__}"
                    )
                backoff = int(
                    policy.min_separation_cycles
                    * policy.sample_growth ** attempts
                )
                await svc.loop.sleep_cycles(backoff)

    async def _attempt(self) -> tuple[str, str]:
        """One bounded attempt: acquire a lane, run rounds, release."""
        svc = self._svc
        spec = self.spec
        lane = await svc.fleet.acquire(spec.session_id)
        try:
            self._check_deadline()
            if not self.calibrated:
                self._set_state(STATE_CALIBRATING)
                lane.ensure_calibrated()
                self.calibrated = True
            self._set_state(STATE_ACTIVE)
            while self.rounds_done < spec.probe_rounds:
                if svc.drain_requested:
                    self._set_state(STATE_DRAINING)
                    return EXIT_CHECKPOINTED, "drain"
                await self._stall_opportunity()
                self._check_deadline()
                cycles = lane.run_round(spec.probes_per_round, spec.idle_us)
                self.device_cycles += cycles
                self.rounds_done += 1
                # Charge the round's device time to the service clock,
                # then pace the next round at the controller's cadence
                # (stretched under overload: degrade, don't fail).
                await svc.loop.sleep_cycles(cycles)
                self._check_deadline()
                if self.rounds_done < spec.probe_rounds:
                    gap = (
                        svc.config.inter_round_gap_cycles
                        * svc.controller.cadence_multiplier()
                    )
                    await svc.loop.sleep_cycles(gap)
        finally:
            svc.fleet.release(lane, spec.session_id)
        return EXIT_COMPLETED, ""
