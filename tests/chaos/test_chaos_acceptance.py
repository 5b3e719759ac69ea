"""The headline chaos scenarios: the pipeline survives a seeded storm.

The acceptance plan injects 5 % dropped portal submissions plus a
spurious global DevTLB invalidation every 1.5 ms.  Under it, calibration
still converges to a healthy threshold, the DevTLB covert channel keeps
its decoded bit error rate under 15 %, and the whole run — fault log
included — is byte-identical when replayed from the same (plan, system
seed) pair.
"""

import numpy as np
import pytest

from repro.core.devtlb_attack import DsaDevTlbAttack
from repro.covert.channel import (
    run_devtlb_covert_channel,
    run_devtlb_framed_message,
)
from repro.covert.protocol import CovertConfig
from repro.faults import FaultPlan, FaultSite
from repro.virt.system import AttackTopology, CloudSystem

#: The ISSUE acceptance plan: submission loss + periodic DevTLB flushes.
ACCEPTANCE_PLAN = (
    FaultPlan(seed=11)
    .with_site(FaultSite.SUBMISSION_DROP, probability=0.05)
    .with_site(FaultSite.DEVTLB_INVALIDATE, period_us=1_500.0)
)

#: A third of the 42.5 us bit window: a dropped probe retries in-window.
PROBE_TIMEOUT = 30_000


def _acceptance_run(payload_bits=160, seed=2026):
    system = CloudSystem(seed=seed, fault_plan=ACCEPTANCE_PLAN)
    result = run_devtlb_covert_channel(
        payload_bits=payload_bits, system=system, probe_timeout_cycles=PROBE_TIMEOUT
    )
    return result, system.fault_injector


class TestAcceptanceScenario:
    def test_calibration_recovers_under_the_storm(self):
        system = CloudSystem(seed=2026, fault_plan=ACCEPTANCE_PLAN)
        handles = system.setup_topology(AttackTopology.E1_SEPARATE_WQ_SHARED_ENGINE)
        attack = DsaDevTlbAttack(
            handles.attacker,
            wq_id=handles.attacker_wq,
            probe_timeout_cycles=PROBE_TIMEOUT,
        )
        calibration = attack.calibrate(samples=60)
        assert calibration.healthy()
        assert 600 <= attack.threshold <= 1_100

    def test_covert_error_rate_stays_under_15_percent(self):
        result, injector = _acceptance_run()
        assert result.error_rate < 0.15
        # The storm actually happened: both sites fired.
        assert injector.fired_by_site[FaultSite.SUBMISSION_DROP] > 0
        assert injector.fired_by_site[FaultSite.DEVTLB_INVALIDATE] > 0

    def test_same_plan_and_seed_reproduce_bytes(self):
        result_a, injector_a = _acceptance_run()
        result_b, injector_b = _acceptance_run()
        assert injector_a.log_bytes() == injector_b.log_bytes()
        assert injector_a.log_bytes()  # non-empty
        assert np.array_equal(result_a.received, result_b.received)
        assert result_a.error_rate == result_b.error_rate

    def test_different_plan_seed_changes_the_storm(self):
        result_a, injector_a = _acceptance_run()
        reseeded = FaultPlan(seed=12, specs=ACCEPTANCE_PLAN.specs)
        system = CloudSystem(seed=2026, fault_plan=reseeded)
        run_devtlb_covert_channel(
            payload_bits=160, system=system, probe_timeout_cycles=PROBE_TIMEOUT
        )
        assert system.fault_injector.log_bytes() != injector_a.log_bytes()


class TestFramedMessageUnderLoss:
    def test_payload_decodes_under_5_percent_submission_loss(self):
        plan = FaultPlan(seed=7).with_site(FaultSite.SUBMISSION_DROP, probability=0.05)
        system = CloudSystem(seed=2026, fault_plan=plan)
        message = b"DSAssassin"
        report, result = run_devtlb_framed_message(
            message,
            config=CovertConfig(bit_window_us=85.0),
            system=system,
            redundancy=5,
            probe_timeout_cycles=60_000,
        )
        assert report.data[: len(message)] == message
        assert report.frame_acceptance_rate == 1.0
        assert result.error_rate < 0.15


@pytest.mark.slow
class TestLongFaultStorm:
    """Heavier, longer storm — excluded from tier-1 (marker ``slow``)."""

    def test_long_payload_survives_a_mixed_storm(self):
        plan = (
            FaultPlan(seed=23)
            .with_site(FaultSite.SUBMISSION_DROP, probability=0.05)
            .with_site(FaultSite.DEVTLB_INVALIDATE, period_us=1_500.0)
            .with_site(FaultSite.ENGINE_STALL, probability=0.01, magnitude_cycles=8_000)
            .with_site(FaultSite.PREEMPTION, probability=0.002, magnitude_cycles=20_000)
        )
        system = CloudSystem(seed=2026, fault_plan=plan)
        result = run_devtlb_covert_channel(
            payload_bits=512, system=system, probe_timeout_cycles=PROBE_TIMEOUT
        )
        assert result.error_rate < 0.20
        assert system.timeline.preemptions > 0
