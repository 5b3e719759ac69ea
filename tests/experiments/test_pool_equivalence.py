"""Serial ≡ pool equivalence: a plan run on the persistent worker pool
must leave the same observable artifact as the serial loop — same
finalized result bytes, same journal entries and payload pickles, same
manifest counts — and the contract must survive the pool's own failure
handling: interrupts, pool restarts between segments, worker-count
changes on resume, degradation to the inline serial path, and poisoned
trials.

The fig09 cases (3 trials) run in tier-1.  Chaos coverage (killed /
stalled / corrupting workers) is ``tests/chaos/test_pool_fault_matrix``
(marked ``slow``; run via ``scripts/check.sh full``).

Comparison reuses the masking rules of the serial ≡ parallel suite
(``test_parallel_equivalence``): manifest ``segments`` and per-trial
``elapsed_s`` are host noise; journal records compare sorted by index.
"""

import functools
import os
import pickle
import signal

import pytest

from repro.errors import ConfigurationError, PoolError
from repro.experiments import fig09_covert
from repro.experiments.checkpoint import (
    STATUS_COMPLETED,
    STATUS_INTERRUPTED,
    STATUS_POISONED,
    RunManifest,
)
from repro.experiments.pool import shutdown_pools
from repro.experiments.runner import (
    EXIT_POISONED,
    ExperimentPlan,
    TrialSpec,
    run_experiment,
)
from repro.experiments.supervisor import DEGRADED_SERIAL
from tests.experiments.test_parallel_equivalence import (
    FIG09_CONFIG,
    _assert_same_artifact,
    _fig09_plan,
    _interrupted_fig09_plan,
)


def _dumps(obj) -> bytes:
    return pickle.dumps(obj, protocol=4)


@pytest.fixture(autouse=True)
def _fresh_pools():
    """Each test gets (and leaves behind) a clean pool registry."""
    shutdown_pools()
    yield
    shutdown_pools()


def _kill_worker() -> None:
    """A trial that SIGKILLs whichever pool worker runs it — every
    time, so the supervisor's second strike quarantines it."""
    os.kill(os.getpid(), signal.SIGKILL)


def _poisoned_fig09_plan(k: int) -> ExperimentPlan:
    plan = _fig09_plan()
    return ExperimentPlan(
        name=plan.name,
        seed=plan.seed,
        config=plan.config,
        trials=tuple(
            TrialSpec(key=spec.key, fn=_kill_worker if index == k else spec.fn)
            for index, spec in enumerate(plan.trials)
        ),
        finalize=plan.finalize,
        min_successes=0,
    )


class TestPoolMatchesSerial:
    def test_two_workers_match_serial_byte_for_byte(self, tmp_path):
        serial_dir = tmp_path / "serial"
        pool_dir = tmp_path / "pool"
        serial = run_experiment(_fig09_plan(), run_dir=serial_dir)
        pooled = run_experiment(
            _fig09_plan(),
            run_dir=pool_dir,
            workers=2,
            plan_source=functools.partial(fig09_covert.trial_plan, **FIG09_CONFIG),
        )
        assert serial.status == STATUS_COMPLETED
        assert pooled.status == STATUS_COMPLETED
        assert pooled.pool is not None and pooled.pool["mode"] == "pool"
        assert _dumps(pooled.result) == _dumps(serial.result)
        _assert_same_artifact(serial_dir, pool_dir)

    def test_warm_pool_reuses_plan_and_workers(self, tmp_path):
        source = functools.partial(fig09_covert.trial_plan, **FIG09_CONFIG)
        first = run_experiment(
            _fig09_plan(), workers=2, plan_source=source
        )
        second = run_experiment(
            _fig09_plan(), workers=2, plan_source=source
        )
        assert first.status == STATUS_COMPLETED
        assert second.status == STATUS_COMPLETED
        assert first.pool["plan_reuses"] == 0, "cold pool cannot reuse"
        assert second.pool["plan_reuses"] >= 1, (
            "warm pool must skip plan_source() for a cached fingerprint"
        )
        assert second.pool["respawns"] == 0
        assert _dumps(second.result) == _dumps(first.result)

    def test_interrupt_then_resume_across_pool_restart(self, tmp_path):
        """Interrupt a 2-worker pooled run, shut the pool down entirely
        (process-restart boundary), resume on a fresh 3-worker pool, and
        compare against an uninterrupted serial run."""
        serial_dir = tmp_path / "serial"
        reference = run_experiment(_fig09_plan(), run_dir=serial_dir)

        run_dir = tmp_path / "interrupted"
        interrupted = run_experiment(
            _interrupted_fig09_plan(1),
            run_dir=run_dir,
            workers=2,
            plan_source=functools.partial(_interrupted_fig09_plan, 1),
        )
        assert interrupted.status == STATUS_INTERRUPTED
        assert interrupted.resumable

        shutdown_pools()  # the pool (and all its workers) goes away

        resumed = run_experiment(
            _fig09_plan(),
            run_dir=run_dir,
            resume=True,
            workers=3,
            plan_source=functools.partial(fig09_covert.trial_plan, **FIG09_CONFIG),
        )
        assert resumed.status == STATUS_COMPLETED
        assert resumed.resumed == interrupted.completed
        assert _dumps(resumed.result) == _dumps(reference.result)
        _assert_same_artifact(serial_dir, run_dir, drop=("resumed",))
        manifest = RunManifest.load(run_dir)
        assert [s["event"] for s in manifest.segments] == ["start", "resume"]


def _square(value: int) -> int:
    return value * value


def _fast_plan(trials: int = 8) -> ExperimentPlan:
    """Microsecond trials of a module-level function: pooling them costs
    more than it saves, and they pool anyway."""
    return ExperimentPlan(
        name="fast",
        seed=0,
        config={"trials": trials},
        trials=tuple(
            TrialSpec(key=f"fast/{i}", fn=functools.partial(_square, i))
            for i in range(trials)
        ),
        finalize=dict,
    )


class TestPathRule:
    """``workers`` alone decides where trials run: two or more pending
    trials on a pool that is not marked broken always pool."""

    def test_same_fast_plan_pools_on_every_run(self):
        modes = [
            run_experiment(
                _fast_plan(), workers=2, plan_source=_fast_plan
            ).pool["mode"]
            for _ in range(3)
        ]
        assert modes == ["pool", "pool", "pool"]

    def test_one_cpu_host_still_pools(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        outcome = run_experiment(_fast_plan(), workers=2, plan_source=_fast_plan)
        assert outcome.status == STATUS_COMPLETED
        assert outcome.pool["mode"] == "pool"
        assert outcome.result == {f"fast/{i}": i * i for i in range(8)}

    def test_single_pending_trial_runs_inline(self):
        source = functools.partial(_fast_plan, 1)
        outcome = run_experiment(source(), workers=2, plan_source=source)
        assert outcome.status == STATUS_COMPLETED
        assert outcome.pool["mode"] == DEGRADED_SERIAL
        assert outcome.pool["degraded"] == "only 1 pending trial"
        assert outcome.result == {"fast/0": 0}


class TestPoisonedTrials:
    def test_worker_killing_trial_is_quarantined_with_exit_8(self, tmp_path):
        run_dir = tmp_path / "poisoned"
        outcome = run_experiment(
            _poisoned_fig09_plan(1),
            run_dir=run_dir,
            workers=2,
            plan_source=functools.partial(_poisoned_fig09_plan, 1),
        )
        assert outcome.status == STATUS_POISONED
        assert outcome.exit_code == EXIT_POISONED
        assert isinstance(outcome.error, PoolError)
        poisoned_key = _fig09_plan().trials[1].key
        assert outcome.pool["poisoned"] == [poisoned_key]
        assert outcome.pool["respawns"] >= 2, (
            "two strikes means at least two respawned workers"
        )
        # Everything else still ran and journaled.
        assert outcome.completed == len(_fig09_plan().trials) - 1
        manifest = RunManifest.load(run_dir)
        assert manifest.poisoned == [poisoned_key]
        assert manifest.status == STATUS_POISONED


class TestPlanSourceRequired:
    def test_pooled_run_without_plan_source_is_rejected(self):
        """A pooled run needs the recipe its workers rebuild the plan
        from, even when the plan itself (trial functions and finalize)
        would pickle: the plan is never shipped whole."""
        plan = ExperimentPlan(
            name="picklable",
            seed=0,
            config={},
            trials=(TrialSpec(key="one", fn=functools.partial(int, 1)),),
            finalize=dict,
        )
        assert pickle.loads(_dumps(plan)).trials[0].fn() == 1
        with pytest.raises(ConfigurationError, match="plan_source"):
            run_experiment(plan, workers=2)
