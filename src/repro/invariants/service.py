"""Service-state invariant checker for the always-on session service.

The service (:mod:`repro.service`) juggles even more mutable
bookkeeping than the worker pool: a token bucket, per-tenant budgets, a
bounded admission queue, lane custody, and five-state session
lifecycles — any of which could silently lose or double-count a session
under load.  :class:`ServiceStateChecker` is the service's conscience:
every admission decision, state transition, lane hand-off, and budget
movement is narrated to it, and it raises
:class:`~repro.errors.InvariantViolation` (``invariant="service-state"``,
exit code 6) the moment the story stops adding up:

* session lifecycle transitions must follow the documented machine
  (``offered → admitted → calibrating → active → draining → closed``,
  with ``closed`` reachable from any live state — see
  ``docs/service.md``);
* lane custody is exclusive: a lane is held by at most one session, a
  session holds at most one lane, and releases come from the holder;
* the token bucket and every tenant budget stay non-negative, and no
  tenant exceeds its in-flight cap (the fairness audit);
* queue depth respects its bound (backpressure actually bounds);
* a shed victim carries the lowest priority among sheddable sessions
  at shed time (the controller sheds fairly, never arbitrarily);
* the end-of-run accounting balances exactly:
  ``offered + resumed == rejected + completed + shed + failed +
  quarantined + checkpointed`` with nothing in flight — a session can
  end in exactly one way, and every session ends.

Like :class:`~repro.invariants.pool.PoolStateChecker`, this checker
speaks plain strings/ints/floats only, so it has no import edge back
into the package it audits.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping

from repro.errors import InvariantViolation

#: Session lifecycle states; :mod:`repro.service` narrates these.
STATE_OFFERED = "offered"
STATE_ADMITTED = "admitted"
STATE_CALIBRATING = "calibrating"
STATE_ACTIVE = "active"
STATE_DRAINING = "draining"
STATE_CLOSED = "closed"

#: Legal session transitions.  ``None`` is "never seen": every session
#: enters the story by being offered.  ``closed`` is reachable from any
#: live state because shed/kill/quarantine can strike at any moment.  A
#: session that never ran closes from ``offered`` (rejected, or resumed
#: and drained again) or ``admitted`` (drained from the queue).
_VALID_TRANSITIONS: Mapping[str | None, frozenset[str]] = {
    None: frozenset({STATE_OFFERED}),
    STATE_OFFERED: frozenset({STATE_ADMITTED, STATE_CLOSED}),
    STATE_ADMITTED: frozenset(
        {STATE_CALIBRATING, STATE_DRAINING, STATE_CLOSED}
    ),
    STATE_CALIBRATING: frozenset(
        {STATE_ACTIVE, STATE_DRAINING, STATE_CLOSED}
    ),
    STATE_ACTIVE: frozenset(
        {STATE_CALIBRATING, STATE_DRAINING, STATE_CLOSED}
    ),
    STATE_DRAINING: frozenset({STATE_CLOSED}),
    STATE_CLOSED: frozenset(),
}

#: Terminal exit paths (the accounting alphabet): every session ends
#: in exactly one of these.
EXIT_COMPLETED = "completed"
EXIT_REJECTED = "rejected"
EXIT_SHED = "shed"
EXIT_FAILED = "failed"
EXIT_QUARANTINED = "quarantined"
EXIT_CHECKPOINTED = "checkpointed"
EXIT_PATHS = frozenset(
    {EXIT_COMPLETED, EXIT_REJECTED, EXIT_SHED, EXIT_FAILED,
     EXIT_QUARANTINED, EXIT_CHECKPOINTED}
)


class ServiceStateChecker:
    """Validates one service run's bookkeeping as it happens."""

    name = "service-state"

    def __init__(self) -> None:
        self._session_states: dict[str, str] = {}
        self._exits: dict[str, str] = {}
        self._lane_holder: dict[int, str] = {}  # lane id -> session id
        self._session_lane: dict[str, int] = {}  # session id -> lane id
        # Only the last ten events reach a violation report.
        self._transitions: deque[dict[str, object]] = deque(maxlen=10)
        self.lane_handoffs = 0

    # -- violation plumbing ---------------------------------------------
    def _trip(self, message: str, **snapshot: object) -> None:
        raise InvariantViolation(
            f"service-state: {message}",
            invariant=self.name,
            snapshot={
                "sessions_seen": len(self._session_states),
                "exits": len(self._exits),
                "lanes_held": len(self._lane_holder),
                **snapshot,
            },
            events=tuple(self._transitions),
        )

    def _record(self, **event: object) -> None:
        self._transitions.append(event)

    # -- session lifecycle ----------------------------------------------
    def note_state(self, session_id: str, state: str) -> None:
        """Record (and validate) one session state transition."""
        previous = self._session_states.get(session_id)
        if state not in _VALID_TRANSITIONS:
            self._trip(
                f"session {session_id} entered unknown state {state!r}",
                session=session_id,
            )
        if previous == state:
            return  # idempotent re-assertion, not a transition
        if state not in _VALID_TRANSITIONS[previous]:
            self._trip(
                f"session {session_id} made illegal transition "
                f"{previous or 'unseen'} → {state}",
                session=session_id,
            )
        self._session_states[session_id] = state
        self._record(session=session_id, to=state)

    def note_exit(self, session_id: str, exit_path: str) -> None:
        """Record *session_id*'s terminal exit (exactly one per session)."""
        if exit_path not in EXIT_PATHS:
            self._trip(
                f"session {session_id} exited via unknown path"
                f" {exit_path!r}",
                session=session_id,
            )
        if session_id in self._exits:
            self._trip(
                f"session {session_id} exited twice"
                f" ({self._exits[session_id]}, then {exit_path})"
                " — double-counted",
                session=session_id,
            )
        if self._session_states.get(session_id) != STATE_CLOSED:
            self._trip(
                f"session {session_id} exited via {exit_path} while still"
                f" {self._session_states.get(session_id) or 'unseen'}",
                session=session_id,
            )
        if session_id in self._session_lane:
            self._trip(
                f"session {session_id} exited holding lane"
                f" {self._session_lane[session_id]}",
                session=session_id,
            )
        self._exits[session_id] = exit_path
        self._record(session=session_id, exit=exit_path)

    # -- lane custody ---------------------------------------------------
    def note_lane_acquired(self, session_id: str, lane_id: int) -> None:
        holder = self._lane_holder.get(lane_id)
        if holder is not None:
            self._trip(
                f"lane {lane_id} handed to session {session_id} while"
                f" session {holder} still holds it",
                lane=lane_id,
                session=session_id,
            )
        held = self._session_lane.get(session_id)
        if held is not None:
            self._trip(
                f"session {session_id} acquired lane {lane_id} while"
                f" already holding lane {held}",
                lane=lane_id,
                session=session_id,
            )
        self._lane_holder[lane_id] = session_id
        self._session_lane[session_id] = lane_id
        self.lane_handoffs += 1
        self._record(session=session_id, lane=lane_id, custody="acquired")

    def note_lane_released(self, session_id: str, lane_id: int) -> None:
        holder = self._lane_holder.get(lane_id)
        if holder != session_id:
            self._trip(
                f"session {session_id} released lane {lane_id} held by"
                f" {holder or 'nobody'}",
                lane=lane_id,
                session=session_id,
            )
        del self._lane_holder[lane_id]
        del self._session_lane[session_id]
        self._record(session=session_id, lane=lane_id, custody="released")

    def note_lane_rebuilt(self, old_lane_id: int, new_lane_id: int) -> None:
        """A revoked lane was quarantined and replaced."""
        if old_lane_id in self._lane_holder:
            # Revocation with a holder is legal — the holder's next
            # round raises — but custody must already be torn down by
            # the time the replacement serves anyone; just narrate.
            self._record(
                lane=old_lane_id, custody="revoked-held",
                holder=self._lane_holder[old_lane_id],
            )
        self._record(lane=old_lane_id, rebuilt_as=new_lane_id)

    # -- budgets, queue, fairness ---------------------------------------
    def note_tokens(self, tokens: float) -> None:
        if tokens < 0:
            self._trip(f"token bucket went negative: {tokens}")

    def note_tenant(
        self,
        tenant: str,
        remaining_cycles: int,
        in_flight: int,
        max_in_flight: int,
    ) -> None:
        if remaining_cycles < 0:
            self._trip(
                f"tenant {tenant} device-cycle budget went negative:"
                f" {remaining_cycles}",
                tenant=tenant,
            )
        if in_flight < 0:
            self._trip(
                f"tenant {tenant} in-flight count went negative:"
                f" {in_flight}",
                tenant=tenant,
            )
        if in_flight > max_in_flight:
            self._trip(
                f"tenant {tenant} exceeded its in-flight cap:"
                f" {in_flight} > {max_in_flight} (isolation breached)",
                tenant=tenant,
            )

    def note_queue(self, depth: int, capacity: int) -> None:
        if depth < 0 or depth > capacity:
            self._trip(
                f"admission queue depth {depth} outside [0, {capacity}]"
            )

    def note_shed(
        self, session_id: str, priority: int, floor_priority: int
    ) -> None:
        """A shed decision: the victim must carry the floor priority."""
        if priority > floor_priority:
            self._trip(
                f"shed session {session_id} (priority {priority}) while a"
                f" lower-priority session (priority {floor_priority}) was"
                " sheddable — unfair shed",
                session=session_id,
            )
        self._record(session=session_id, shed_at_priority=priority)

    # -- end-of-run audit -----------------------------------------------
    def final_audit(
        self,
        offered: int,
        resumed: int,
        rejected: int,
        completed: int,
        shed: int,
        failed: int,
        quarantined: int,
        checkpointed: int,
        in_flight: int,
    ) -> None:
        """The conservation law for a run claiming a terminal report."""
        if in_flight != 0:
            self._trip(
                f"run ended with {in_flight} session(s) still in flight"
            )
        if self._lane_holder:
            held = dict(sorted(self._lane_holder.items())[:5])
            self._trip(f"run ended with lanes still held: {held}")
        live = [
            sid
            for sid, state in sorted(self._session_states.items())
            if state != STATE_CLOSED
        ]
        if live:
            self._trip(
                f"run ended with {len(live)} session(s) not closed:"
                f" {live[:5]}"
            )
        terminal = (
            rejected + completed + shed + failed + quarantined + checkpointed
        )
        if offered + resumed != terminal:
            self._trip(
                "session accounting mismatch:"
                f" offered {offered} + resumed {resumed} !="
                f" rejected {rejected} + completed {completed} +"
                f" shed {shed} + failed {failed} +"
                f" quarantined {quarantined} +"
                f" checkpointed {checkpointed} (= {terminal})",
                offered=offered,
                resumed=resumed,
            )
        exits = len(self._exits)
        if exits != terminal:
            self._trip(
                f"terminal exits narrated ({exits}) disagree with the"
                f" accounting total ({terminal}) — a session was lost or"
                " double-counted",
            )
