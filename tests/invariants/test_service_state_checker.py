"""Unit tests for :class:`repro.invariants.service.ServiceStateChecker`.

Every violation class the checker guards — illegal lifecycle
transitions, double exits, lane custody breaches, negative budgets,
queue-bound breaches, unfair sheds, and the end-of-run conservation
law — must trip as a replayable :class:`InvariantViolation`, and the
legal narration paths must stay silent.
"""

import pytest

from repro.errors import InvariantViolation
from repro.invariants.service import (
    STATE_ACTIVE,
    STATE_ADMITTED,
    STATE_CALIBRATING,
    STATE_CLOSED,
    STATE_DRAINING,
    STATE_OFFERED,
    ServiceStateChecker,
)


def _walk(checker, sid, *states):
    for state in states:
        checker.note_state(sid, state)


class TestLifecycle:
    def test_full_happy_path_is_legal(self):
        checker = ServiceStateChecker()
        _walk(
            checker, "s0",
            STATE_OFFERED, STATE_ADMITTED, STATE_CALIBRATING,
            STATE_ACTIVE, STATE_CLOSED,
        )
        checker.note_exit("s0", "completed")

    def test_recalibration_cycle_is_legal(self):
        checker = ServiceStateChecker()
        _walk(
            checker, "s0",
            STATE_OFFERED, STATE_ADMITTED, STATE_CALIBRATING,
            STATE_ACTIVE, STATE_CALIBRATING, STATE_ACTIVE, STATE_CLOSED,
        )

    def test_idempotent_reassertion_is_not_a_transition(self):
        checker = ServiceStateChecker()
        _walk(checker, "s0", STATE_OFFERED, STATE_OFFERED, STATE_ADMITTED)

    def test_entering_midstream_trips(self):
        checker = ServiceStateChecker()
        with pytest.raises(InvariantViolation, match="illegal transition"):
            checker.note_state("s0", STATE_ACTIVE)

    def test_skipping_admission_trips(self):
        checker = ServiceStateChecker()
        checker.note_state("s0", STATE_OFFERED)
        with pytest.raises(InvariantViolation, match="illegal transition"):
            checker.note_state("s0", STATE_ACTIVE)

    def test_draining_only_reaches_closed(self):
        checker = ServiceStateChecker()
        _walk(checker, "s0", STATE_OFFERED, STATE_ADMITTED, STATE_DRAINING)
        with pytest.raises(InvariantViolation, match="illegal transition"):
            checker.note_state("s0", STATE_ACTIVE)

    def test_unknown_state_trips(self):
        checker = ServiceStateChecker()
        with pytest.raises(InvariantViolation, match="unknown state"):
            checker.note_state("s0", "zombie")


class TestExits:
    def _closed(self, sid="s0"):
        checker = ServiceStateChecker()
        _walk(checker, sid, STATE_OFFERED, STATE_CLOSED)
        return checker

    def test_double_exit_trips(self):
        checker = self._closed()
        checker.note_exit("s0", "rejected")
        with pytest.raises(InvariantViolation, match="exited twice"):
            checker.note_exit("s0", "rejected")

    def test_exit_while_live_trips(self):
        checker = ServiceStateChecker()
        _walk(checker, "s0", STATE_OFFERED, STATE_ADMITTED)
        with pytest.raises(InvariantViolation, match="while still"):
            checker.note_exit("s0", "completed")

    def test_unknown_exit_path_trips(self):
        checker = self._closed()
        with pytest.raises(InvariantViolation, match="unknown path"):
            checker.note_exit("s0", "vanished")

    def test_exit_holding_lane_trips(self):
        checker = ServiceStateChecker()
        _walk(
            checker, "s0",
            STATE_OFFERED, STATE_ADMITTED, STATE_CALIBRATING, STATE_ACTIVE,
        )
        checker.note_lane_acquired("s0", 0)
        checker.note_state("s0", STATE_CLOSED)
        with pytest.raises(InvariantViolation, match="holding lane"):
            checker.note_exit("s0", "completed")


class TestLaneCustody:
    def test_exclusive_custody_both_directions(self):
        checker = ServiceStateChecker()
        checker.note_lane_acquired("s0", 0)
        with pytest.raises(InvariantViolation, match="still holds it"):
            checker.note_lane_acquired("s1", 0)
        with pytest.raises(InvariantViolation, match="already holding"):
            checker.note_lane_acquired("s0", 1)

    def test_release_by_non_holder_trips(self):
        checker = ServiceStateChecker()
        checker.note_lane_acquired("s0", 0)
        with pytest.raises(InvariantViolation, match="held by"):
            checker.note_lane_released("s1", 0)

    def test_handoff_counter_and_rebuild_narration(self):
        checker = ServiceStateChecker()
        checker.note_lane_acquired("s0", 0)
        checker.note_lane_released("s0", 0)
        checker.note_lane_acquired("s1", 0)
        checker.note_lane_released("s1", 0)
        assert checker.lane_handoffs == 2
        checker.note_lane_rebuilt(0, 4)  # legal whether held or not


class TestBudgetsQueueShed:
    def test_negative_tokens_trip(self):
        with pytest.raises(InvariantViolation, match="negative"):
            ServiceStateChecker().note_tokens(-0.5)

    def test_tenant_cap_breach_trips(self):
        checker = ServiceStateChecker()
        checker.note_tenant("t0", 100, 4, 4)
        with pytest.raises(InvariantViolation, match="isolation breached"):
            checker.note_tenant("t0", 100, 5, 4)

    def test_tenant_negative_budget_trips(self):
        with pytest.raises(InvariantViolation, match="negative"):
            ServiceStateChecker().note_tenant("t0", -1, 0, 4)

    def test_queue_bound_breach_trips(self):
        checker = ServiceStateChecker()
        checker.note_queue(8, 8)
        with pytest.raises(InvariantViolation, match="outside"):
            checker.note_queue(9, 8)

    def test_unfair_shed_trips(self):
        checker = ServiceStateChecker()
        checker.note_shed("s0", 0, 0)  # floor victim: fine
        with pytest.raises(InvariantViolation, match="unfair shed"):
            checker.note_shed("s1", 2, 0)


class TestFinalAudit:
    @staticmethod
    def _closed_checker(n):
        checker = ServiceStateChecker()
        for i in range(n):
            _walk(checker, f"s{i}", STATE_OFFERED, STATE_CLOSED)
            checker.note_exit(f"s{i}", "rejected")
        return checker

    def test_balanced_books_pass(self):
        checker = self._closed_checker(3)
        checker.final_audit(
            offered=3, resumed=0, rejected=3, completed=0, shed=0,
            failed=0, quarantined=0, checkpointed=0, in_flight=0,
        )

    def test_conservation_mismatch_trips(self):
        checker = self._closed_checker(3)
        with pytest.raises(InvariantViolation, match="accounting mismatch"):
            checker.final_audit(
                offered=4, resumed=0, rejected=3, completed=0, shed=0,
                failed=0, quarantined=0, checkpointed=0, in_flight=0,
            )

    def test_in_flight_remainder_trips(self):
        checker = self._closed_checker(1)
        with pytest.raises(InvariantViolation, match="in flight"):
            checker.final_audit(
                offered=1, resumed=0, rejected=1, completed=0, shed=0,
                failed=0, quarantined=0, checkpointed=0, in_flight=1,
            )

    def test_unclosed_session_trips(self):
        checker = self._closed_checker(1)
        checker.note_state("s9", STATE_OFFERED)
        with pytest.raises(InvariantViolation, match="not closed"):
            checker.final_audit(
                offered=1, resumed=0, rejected=1, completed=0, shed=0,
                failed=0, quarantined=0, checkpointed=0, in_flight=0,
            )

    def test_lost_exit_narration_trips(self):
        # Books balance numerically, but one exit was never narrated:
        # the session was lost between accounting and the ledger.
        checker = self._closed_checker(2)
        with pytest.raises(InvariantViolation, match="lost or double"):
            checker.final_audit(
                offered=3, resumed=0, rejected=3, completed=0, shed=0,
                failed=0, quarantined=0, checkpointed=0, in_flight=0,
            )

    def test_violation_carries_snapshot_and_events(self):
        checker = self._closed_checker(1)
        try:
            checker.final_audit(
                offered=2, resumed=0, rejected=1, completed=0, shed=0,
                failed=0, quarantined=0, checkpointed=0, in_flight=0,
            )
        except InvariantViolation as violation:
            assert violation.invariant == "service-state"
            assert violation.snapshot["sessions_seen"] == 1
            assert violation.events
        else:
            pytest.fail("mismatch did not trip")
