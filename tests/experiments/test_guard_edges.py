"""Edge-case tests for trial containment and the success floor:
degenerate deadlines, exact floors, last-trial failures, and a deadline
that expires before any trial succeeds."""

import pytest

from repro.errors import InsufficientTrialsError, ReproError
from repro.experiments.checkpoint import (
    STATUS_COMPLETED,
    STATUS_DEADLINE,
    STATUS_INSUFFICIENT,
    CheckpointJournal,
)
from repro.experiments.runner import (
    STOP_DEADLINE,
    ExperimentPlan,
    TrialSpec,
    Watchdog,
    override_clocks,
    run_experiment,
    run_guarded_trials,
)
from tests.experiments.test_clocks import FakeClock


def _ok(value=1):
    return lambda: value


def _bad(message="transient"):
    def fn():
        raise ReproError(message)

    return fn


def _plan(fns, min_successes):
    return ExperimentPlan(
        name="edges",
        seed=0,
        config={"trials": len(fns)},
        trials=tuple(TrialSpec(key=f"t/{i}", fn=fn) for i, fn in enumerate(fns)),
        finalize=lambda results: list(results.values()),
        min_successes=min_successes,
    )


def _slow(clock, fn, seconds=1.0):
    def trial():
        clock.advance(seconds)
        return fn()

    return trial


class TestDegenerateBudgets:
    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError, match="positive or None"):
            Watchdog(budget_s=0.0)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="positive or None"):
            run_experiment(_plan([_ok()], 1), deadline_s=-5.0)

    def test_negative_floor_rejected(self):
        with pytest.raises(ValueError, match="min_successes"):
            _plan([_ok()], -1)

    def test_zero_floor_allows_total_failure(self):
        outcome = run_experiment(_plan([_bad(), _bad()], 0))
        assert outcome.status == STATUS_COMPLETED
        assert outcome.result == []
        assert outcome.failed == 2


class TestExactFloor:
    def test_floor_equal_to_trial_count_passes_when_all_succeed(self):
        outcome = run_experiment(_plan([_ok(1), _ok(2), _ok(3)], 3))
        assert outcome.status == STATUS_COMPLETED
        assert outcome.result == [1, 2, 3]

    def test_floor_equal_to_trial_count_fails_on_any_failure(self):
        outcome = run_experiment(_plan([_ok(), _bad(), _ok()], 3))
        assert outcome.status == STATUS_INSUFFICIENT
        with pytest.raises(InsufficientTrialsError, match="2/3"):
            outcome.require_result()


class TestFinalTrialFailure:
    def test_failure_on_final_trial_recorded_not_lost(self, tmp_path):
        outcome = run_experiment(
            _plan([_ok(1), _ok(2), _bad("last gasp")], 2), run_dir=tmp_path
        )
        assert outcome.result == [1, 2]
        assert outcome.failed == 1
        entry = CheckpointJournal.load(tmp_path).get("t/2")
        assert entry.index == 2 and not entry.ok
        assert "last gasp" in entry.error

    def test_failure_on_final_trial_below_floor_aborts(self):
        outcome = run_experiment(_plan([_ok(), _bad("last gasp")], 2))
        assert outcome.status == STATUS_INSUFFICIENT
        assert "last gasp" in str(outcome.error)


class TestBudgetExhaustion:
    def test_budget_exhaustion_with_zero_completed(self):
        """The first trial burns the whole deadline *and* fails:
        everything after it is skipped, nothing succeeded."""
        clock = FakeClock()
        plan = _plan([_slow(clock, _bad("burned the budget")), _ok(), _ok()], 1)
        with override_clocks(monotonic=clock):
            outcome = run_experiment(plan, deadline_s=1.0)
        assert outcome.status == STATUS_DEADLINE
        assert (outcome.completed, outcome.failed, outcome.skipped) == (0, 1, 2)

    def test_budget_cut_sets_stop_reason(self):
        clock = FakeClock()
        with override_clocks(monotonic=clock):
            dog = Watchdog(budget_s=1.5)
            run = run_guarded_trials(
                [_slow(clock, _ok())] * 3,
                stop=dog.check,
                on_trial_end=lambda i, result, error, elapsed_s: dog.note_trial(
                    elapsed_s
                ),
            )
        assert run.stop_reason == STOP_DEADLINE
        assert run.skipped == 2


class TestSupervisionHooks:
    def test_stop_hook_halts_batch_with_reason(self):
        ran = []
        run = run_guarded_trials(
            [_ok(), _ok(), _ok()],
            stop=lambda: "deadline",
            on_trial_end=lambda index, *_: ran.append(index),
        )
        assert run.stop_reason == "deadline"
        assert ran == []
        assert run.skipped == 3

    def test_skip_hook_bypasses_without_counting(self):
        results = []
        run = run_guarded_trials(
            [_ok(1), _ok(2), _ok(3)],
            skip_trial=lambda index: "resumed" if index == 1 else None,
            on_trial_end=lambda index, result, *_: results.append(result),
        )
        assert results == [1, 3]
        assert run.skipped == 0

    def test_on_trial_end_sees_both_outcomes(self):
        seen = []
        run_guarded_trials(
            [_ok(7), _bad()],
            on_trial_end=lambda index, result, error, elapsed_s: seen.append(
                (index, result, error is not None, elapsed_s >= 0.0)
            ),
        )
        assert seen == [(0, 7, False, True), (1, None, True, True)]
