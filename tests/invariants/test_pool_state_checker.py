"""The pool's conscience: supervision narration that stops adding up
must trip :class:`~repro.invariants.PoolStateChecker` (exit code 6),
because every silent inconsistency here is a dropped or double-run
trial in the artifact.
"""

import pytest

from repro.errors import InvariantViolation
from repro.invariants import PoolStateChecker
from repro.invariants.pool import (
    STATE_HEALTHY,
    STATE_RESPAWNING,
    STATE_RETIRED,
    STATE_SPAWNING,
)


def _checker(total=4) -> PoolStateChecker:
    return PoolStateChecker(total)


class TestWorkerLifecycle:
    def test_documented_cycle_is_legal(self):
        checker = _checker()
        for state in (
            STATE_SPAWNING,
            STATE_HEALTHY,
            STATE_RESPAWNING,
            STATE_SPAWNING,
            STATE_HEALTHY,
            STATE_RETIRED,
        ):
            checker.note_worker(0, state)
        assert checker.worker_state(0) == STATE_RETIRED

    def test_reasserting_the_current_state_is_idempotent(self):
        checker = _checker()
        checker.note_worker(0, STATE_SPAWNING)
        checker.note_worker(0, STATE_SPAWNING)
        assert checker.worker_state(0) == STATE_SPAWNING

    def test_worker_must_spawn_before_being_healthy(self):
        with pytest.raises(InvariantViolation, match="pool-state"):
            _checker().note_worker(0, STATE_HEALTHY)

    def test_retired_is_terminal(self):
        checker = _checker()
        checker.note_worker(0, STATE_SPAWNING)
        checker.note_worker(0, STATE_RETIRED)
        with pytest.raises(InvariantViolation):
            checker.note_worker(0, STATE_SPAWNING)

    def test_unknown_state_name_trips(self):
        with pytest.raises(InvariantViolation):
            _checker().note_worker(0, "zombie")


class TestAssignment:
    def _healthy(self, checker, worker_id=0):
        checker.note_worker(worker_id, STATE_SPAWNING)
        checker.note_worker(worker_id, STATE_HEALTHY)

    def test_exactly_once_completion(self):
        checker = _checker()
        self._healthy(checker)
        checker.note_dispatch(0, [0, 1])
        checker.note_result(0, 0)
        checker.note_result(1, 0)
        checker.final_audit(accounted=2, skipped=2)

    def test_double_assignment_trips(self):
        checker = _checker()
        self._healthy(checker, 0)
        self._healthy(checker, 1)
        checker.note_dispatch(0, [0])
        with pytest.raises(InvariantViolation):
            checker.note_dispatch(1, [0])

    def test_result_from_the_wrong_worker_trips(self):
        checker = _checker()
        self._healthy(checker, 0)
        self._healthy(checker, 1)
        checker.note_dispatch(0, [0])
        with pytest.raises(InvariantViolation):
            checker.note_result(0, 1)

    def test_rerunning_a_completed_trial_trips(self):
        checker = _checker()
        self._healthy(checker)
        checker.note_dispatch(0, [0])
        checker.note_result(0, 0)
        with pytest.raises(InvariantViolation):
            checker.note_dispatch(0, [0])

    def test_requeue_then_redispatch_is_legal(self):
        checker = _checker()
        self._healthy(checker, 0)
        self._healthy(checker, 1)
        checker.note_dispatch(0, [0, 1])
        checker.note_unassign([0, 1])  # crash: trials requeued
        checker.note_dispatch(1, [0, 1])
        checker.note_result(0, 1)
        checker.note_result(1, 1)

    def test_poisoned_trial_cannot_be_dispatched_again(self):
        checker = _checker()
        self._healthy(checker)
        checker.note_dispatch(0, [0])
        checker.note_unassign([0])
        checker.note_poison(0)
        with pytest.raises(InvariantViolation):
            checker.note_dispatch(0, [0])


class TestFinalAudit:
    def test_unaccounted_trial_trips(self):
        checker = _checker(total=3)
        with pytest.raises(InvariantViolation, match="pool-state"):
            checker.final_audit(accounted=2, skipped=0)

    def test_poisoned_trials_count_toward_the_audit(self):
        checker = _checker(total=3)
        checker.note_worker(0, STATE_SPAWNING)
        checker.note_worker(0, STATE_HEALTHY)
        checker.note_dispatch(0, [0, 1, 2])
        checker.note_result(0, 0)
        checker.note_result(1, 0)
        checker.note_unassign([2])
        checker.note_poison(2)
        checker.final_audit(accounted=2, skipped=0)
        assert checker.poisoned == frozenset({2})

    def test_still_assigned_trial_trips_the_audit(self):
        checker = _checker(total=1)
        checker.note_worker(0, STATE_SPAWNING)
        checker.note_worker(0, STATE_HEALTHY)
        checker.note_dispatch(0, [0])
        with pytest.raises(InvariantViolation):
            checker.final_audit(accounted=1, skipped=0)
