"""The hardened pipeline layers: retry, recalibration, guards."""

import numpy as np
import pytest

from repro.core.calibration import (
    CalibrationPolicy,
    ThresholdMonitor,
    calibrate_with_recovery,
)
from repro.core.primitives import Prober
from repro.covert.protocol import CovertConfig
from repro.errors import (
    CalibrationError,
    CompletionTimeoutError,
    InsufficientTrialsError,
    QueueFullError,
)
from repro.experiments.checkpoint import STATUS_DEADLINE
from repro.experiments.runner import (
    ExperimentPlan,
    TrialSpec,
    run_experiment,
    run_guarded_trials,
)
from repro.faults import FaultPlan, FaultSite

from tests.conftest import build_host


class _ProcAdapter:
    """Adapts the conftest ``Proc`` to the ``GuestProcess`` duck type."""

    def __init__(self, proc):
        self._proc = proc
        self.pasid = proc.pasid

    def portal(self, wq_id):
        return self._proc.portal

    def buffer(self, huge=False):
        return self._proc.buffer(huge=huge)

    def comp_record(self):
        return self._proc.comp_record()


def _prober(host, **kwargs):
    return Prober(_ProcAdapter(host.new_process()), **kwargs)


class TestProberRetry:
    def test_retries_through_partial_submission_loss(self):
        host = build_host(seed=77)
        injector = FaultPlan(seed=6).with_site(
            FaultSite.SUBMISSION_DROP, probability=0.5
        ).build_injector()
        injector.attach_device(host.device)
        prober = _prober(host, max_retries=10, wait_timeout_cycles=30_000)
        comp = prober.fresh_comp()
        for _ in range(30):
            result = prober.probe_noop(comp)
            assert result.record.status.name == "SUCCESS"
        assert prober.retries_used > 0
        assert prober.probe_failures == prober.retries_used

    def test_exhausted_retries_raise_the_last_timeout(self):
        host = build_host(seed=77)
        injector = FaultPlan(seed=6).with_site(
            FaultSite.SUBMISSION_DROP, probability=1.0
        ).build_injector()
        injector.attach_device(host.device)
        prober = _prober(host, max_retries=2, wait_timeout_cycles=10_000)
        with pytest.raises(CompletionTimeoutError):
            prober.probe_noop(prober.fresh_comp())
        assert prober.retries_used == 2

    def test_completion_error_returned_after_budget(self):
        host = build_host(seed=77)
        injector = FaultPlan(seed=6).with_site(
            FaultSite.COMPLETION_ERROR, probability=1.0
        ).build_injector()
        injector.attach_device(host.device)
        prober = _prober(host, max_retries=1)
        result = prober.probe_noop(prober.fresh_comp())
        # Every attempt faulted: the caller sees the faulted record.
        assert result.record.status.name == "PAGE_FAULT"
        assert prober.probe_failures == 1


class _FlatProber:
    """Duck-typed prober with no hit/miss separation (uncalibratable)."""

    def __init__(self):
        self._comp = 0
        self._state = 0

    def fresh_comp(self):
        self._comp += 1
        return self._comp

    def probe_noop(self, comp):
        class R:
            latency_cycles = 700

        return R()


class TestCalibrationRecovery:
    def test_recovers_on_a_clean_host(self):
        host = build_host(seed=11)
        prober = _prober(host)
        result = calibrate_with_recovery(prober, samples=40)
        assert result.healthy()
        assert 500 < result.threshold < 1100

    def test_recovers_under_faults(self):
        host = build_host(seed=11)
        injector = (
            FaultPlan(seed=8)
            .with_site(FaultSite.SUBMISSION_DROP, probability=0.05)
            .with_site(FaultSite.ENGINE_STALL, probability=0.02, magnitude_cycles=5_000)
        ).build_injector()
        injector.attach_device(host.device)
        prober = _prober(host, wait_timeout_cycles=30_000)
        result = calibrate_with_recovery(prober, samples=40)
        assert result.healthy()

    def test_unhealthy_raises_with_best_attempt(self):
        policy = CalibrationPolicy(max_attempts=2)
        with pytest.raises(CalibrationError) as info:
            calibrate_with_recovery(_FlatProber(), samples=10, policy=policy)
        assert info.value.best is not None
        assert info.value.best.separation == 0.0

    def test_trim_sheds_outliers(self):
        from repro.core.calibration import _trim

        hits = np.array([500] * 19 + [5_000], dtype=np.int64)
        misses = np.array([1_400] * 19 + [100], dtype=np.int64)
        assert _trim(hits, 0.1, high=True).max() == 500
        assert _trim(misses, 0.1, high=False).min() == 1_400

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            CalibrationPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            CalibrationPolicy(trim_fraction=0.5)


class TestThresholdMonitor:
    def test_clean_latencies_do_not_drift(self):
        monitor = ThresholdMonitor(threshold=750, min_samples=16)
        for _ in range(64):
            monitor.observe(500)
            monitor.observe(1_400)
        assert not monitor.drifting
        assert monitor.ambiguous_fraction == 0.0

    def test_ambiguous_band_triggers_drift(self):
        monitor = ThresholdMonitor(threshold=750, band_cycles=120, min_samples=16)
        for _ in range(32):
            monitor.observe(700)  # inside the band around the threshold
        assert monitor.drifting

    def test_reset_rearms_with_new_threshold(self):
        monitor = ThresholdMonitor(threshold=750, min_samples=4)
        for _ in range(8):
            monitor.observe(760)
        assert monitor.drifting
        monitor.reset(threshold=900)
        assert monitor.threshold == 900
        assert not monitor.drifting


def _guard_plan(trials, name="figure X", min_successes=1):
    """A plan of *trials*, a mapping of trial key to trial function."""
    return ExperimentPlan(
        name=name,
        seed=0,
        config={},
        trials=tuple(TrialSpec(key=key, fn=fn) for key, fn in trials.items()),
        finalize=dict,
        min_successes=min_successes,
    )


class TestExperimentGuard:
    def test_contains_repro_errors(self):
        def good():
            return 1

        def bad():
            raise QueueFullError("full", wq_id=0)

        outcomes = []
        run_guarded_trials(
            [good, bad, good],
            on_trial_end=lambda index, result, error, _: outcomes.append(
                (index, result, error)
            ),
        )
        assert [(i, r) for i, r, e in outcomes if e is None] == [(0, 1), (2, 1)]
        failures = [(i, e) for i, r, e in outcomes if e is not None]
        assert [i for i, _ in failures] == [1]
        assert isinstance(failures[0][1], QueueFullError)

    def test_non_repro_errors_propagate(self):
        def boom():
            raise RuntimeError("bug")

        with pytest.raises(RuntimeError):
            run_guarded_trials([boom])

    def test_too_few_successes_raise(self):
        def bad():
            raise QueueFullError("full")

        outcome = run_experiment(_guard_plan({"a": bad, "b": bad}))
        with pytest.raises(InsufficientTrialsError, match="0/2 trials"):
            outcome.require_result()

    def test_wall_clock_budget_skips_remaining(self):
        import time

        def slow():
            time.sleep(0.05)
            return 1

        outcome = run_experiment(
            _guard_plan({f"slow/{n}": slow for n in range(10)}), deadline_s=0.08
        )
        assert outcome.status == STATUS_DEADLINE
        assert outcome.skipped > 0
        assert outcome.completed >= 1


class TestCovertConfigValidation:
    def test_negative_preamble_jitter_rejected(self):
        with pytest.raises(ValueError, match="preamble_jitter_us"):
            CovertConfig(preamble_jitter_us=-1.0)

    def test_negative_burst_bits_rejected(self):
        with pytest.raises(ValueError, match="preamble_burst_bits"):
            CovertConfig(preamble_burst_bits=-1)

    def test_burst_bits_bounded_by_preamble(self):
        with pytest.raises(ValueError, match="cannot exceed"):
            CovertConfig(preamble_ones=4, preamble_burst_bits=5)
        CovertConfig(preamble_ones=4, preamble_burst_bits=4)  # boundary ok
