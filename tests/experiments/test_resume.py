"""Interrupt/resume equivalence: a run killed at trial *k* and resumed
must produce a byte-identical artifact to an uninterrupted run.

The fig09 case is tiny and runs in tier-1; the table3 sweep exercises
the full cross-experiment surface and is marked ``resume`` (run via
``scripts/run_resume_smoke.sh`` or ``pytest -m resume``).
"""

import functools
import pickle

import pytest

from repro.errors import CheckpointError, ReproError
from repro.experiments import fig09_covert, table3_noise
from repro.experiments.checkpoint import (
    STATUS_COMPLETED,
    STATUS_DEADLINE,
    STATUS_FAILED,
    STATUS_INTERRUPTED,
    RunManifest,
)
from repro.experiments.runner import (
    BreakerConfig,
    ExperimentPlan,
    TrialSpec,
    execute_plan,
    override_clocks,
    run_experiment,
)
from tests.experiments.test_clocks import FakeClock


def _interrupt_at(plan: ExperimentPlan, k: int) -> ExperimentPlan:
    """A copy of *plan* whose *k*-th trial dies mid-run."""

    def boom():
        raise KeyboardInterrupt

    return ExperimentPlan(
        name=plan.name,
        seed=plan.seed,
        config=plan.config,
        trials=tuple(
            TrialSpec(key=spec.key, fn=boom if index == k else spec.fn)
            for index, spec in enumerate(plan.trials)
        ),
        finalize=plan.finalize,
        min_successes=plan.min_successes,
    )


def _assert_resume_equivalent(plan_factory, k, tmp_path, reference=None):
    """Kill a checkpointed run at trial *k*, resume it, and compare the
    artifact byte-for-byte against an uninterrupted run (*reference*'s
    result, or a fresh in-memory run)."""
    if reference is None:
        reference = execute_plan(plan_factory())

    interrupted = run_experiment(_interrupt_at(plan_factory(), k), run_dir=tmp_path)
    assert interrupted.status == STATUS_INTERRUPTED
    assert interrupted.completed == k

    resumed = run_experiment(plan_factory(), run_dir=tmp_path, resume=True)
    assert resumed.status == STATUS_COMPLETED
    assert resumed.resumed == k

    assert pickle.dumps(resumed.result, protocol=4) == pickle.dumps(
        reference, protocol=4
    ), "resumed artifact differs from uninterrupted run"

    manifest = RunManifest.load(tmp_path)
    assert [s["event"] for s in manifest.segments] == ["start", "resume"]
    return resumed.result


class TestFig09Resume:
    def test_interrupted_resume_is_byte_identical(self, tmp_path):
        def factory():
            return fig09_covert.trial_plan(
                payload_bits=48,
                runs=1,
                devtlb_windows=(50.0, 100.0),
                swq_windows=(50.0,),
            )

        result = _assert_resume_equivalent(factory, k=1, tmp_path=tmp_path)
        primitives = [p.primitive for p in result.points]
        assert primitives.count("devtlb") == 2
        assert primitives.count("swq") == 1

    def test_interrupt_before_first_trial_resumes_cleanly(self, tmp_path):
        def factory():
            return fig09_covert.trial_plan(
                payload_bits=48, runs=1,
                devtlb_windows=(50.0,), swq_windows=(50.0,),
            )

        _assert_resume_equivalent(factory, k=0, tmp_path=tmp_path)


def _one_second_trial(clock, index):
    """Takes one second of *clock*; trial 0 always fails."""
    clock.advance(1.0)
    if index == 0:
        raise ReproError("environment down")
    return index


class TestDeadlineAfterResume:
    def test_deadline_stop_counts_only_pending_trials(self, tmp_path):
        """Trial 0 fails, the breaker skips 1-2, trial 3 succeeds; the
        resumed segment runs trial 1 and the deadline stops it before
        trial 2.  Trials resumed from the journal are never counted as
        deadline-skipped, so every trial is counted exactly once."""
        clock = FakeClock()
        plan = ExperimentPlan(
            name="deadline-resume",
            seed=0,
            config={"trials": 4},
            trials=tuple(
                TrialSpec(
                    key=f"t/{i}", fn=functools.partial(_one_second_trial, clock, i)
                )
                for i in range(4)
            ),
            finalize=dict,
        )
        breaker = BreakerConfig(failure_threshold=1, cooldown_trials=2)
        with override_clocks(monotonic=clock):
            first = run_experiment(plan, run_dir=tmp_path, breaker=breaker)
            assert (first.completed, first.failed, first.skipped) == (1, 1, 2)
            resumed = run_experiment(
                plan,
                run_dir=tmp_path,
                resume=True,
                deadline_s=1.5,
                breaker=breaker,
            )
        assert resumed.status == STATUS_DEADLINE
        assert (resumed.completed, resumed.failed, resumed.skipped) == (2, 1, 1)
        assert (
            resumed.completed + resumed.failed + resumed.skipped
            == len(plan.trials)
        )


class TestCorruptPayload:
    def test_unpicklable_resumed_payload_fails_finalize(self, tmp_path):
        """Resume reads journaled bytes back verbatim and finalize
        unpickles them: bytes that no longer unpickle end the run as a
        checkpoint failure (exit 4), never as a traceback."""
        plan = ExperimentPlan(
            name="corrupt-payload",
            seed=0,
            config={"trials": 2},
            trials=tuple(
                TrialSpec(key=f"t/{i}", fn=functools.partial(int, i))
                for i in range(2)
            ),
            finalize=dict,
        )
        first = run_experiment(_interrupt_at(plan, 1), run_dir=tmp_path)
        assert first.status == STATUS_INTERRUPTED
        (tmp_path / "trials" / "0000.pkl").write_bytes(b"\x80\x04")
        resumed = run_experiment(plan, run_dir=tmp_path, resume=True)
        assert resumed.status == STATUS_FAILED
        assert isinstance(resumed.error, CheckpointError)
        assert "corrupt trial payload" in str(resumed.error)
        assert resumed.exit_code == 4


@pytest.mark.resume
class TestTable3Resume:
    def test_interrupted_resume_is_byte_identical(self, tmp_path):
        def factory():
            return table3_noise.trial_plan(
                repeats=2,
                covert_bits=24,
                keystrokes=8,
                wf_sites=2,
                wf_visits=2,
                llm_traces=2,
                llm_models=2,
            )

        result = _assert_resume_equivalent(factory, k=11, tmp_path=tmp_path)
        assert len(result.rows) == 6
