"""Tests for the attack detector."""

from repro.core.devtlb_attack import DsaDevTlbAttack
from repro.core.swq_attack import DsaSwqAttack
from repro.hw.units import us_to_cycles
from repro.mitigation.detector import AttackDetector, DetectorConfig, FindingKind
from repro.virt.system import AttackTopology, CloudSystem
from repro.workloads.vpp import PacketEvent, VppVictim


class TestSwqDetection:
    def test_congest_probe_pattern_flagged(self):
        system = CloudSystem(seed=1)
        handles = system.setup_topology(AttackTopology.E0_SHARED_WQ_SHARED_ENGINE)
        detector = AttackDetector(
            system.device, DetectorConfig(poll_period_us=200.0)
        )
        detector.start(system.timeline)

        # Long anchors keep the armed state pinned across detector polls.
        attack = DsaSwqAttack(handles.attacker, wq_id=0, anchor_bytes=1 << 24)
        for _ in range(4):
            attack.run_round(idle_cycles=us_to_cycles(400), timeline=system.timeline)
        system.timeline.idle_for_us(3000)
        detector.stop()
        assert detector.findings_of(FindingKind.SWQ_CONGESTION_PROBING)

    def test_quiet_system_not_flagged(self):
        system = CloudSystem(seed=2)
        system.setup_topology(AttackTopology.E0_SHARED_WQ_SHARED_ENGINE)
        detector = AttackDetector(system.device)
        detector.start(system.timeline)
        system.timeline.idle_for_us(10_000)
        detector.stop()
        assert not detector.triggered
        assert detector.polls >= 9


class TestDevTlbDetection:
    def test_probe_cadence_flagged(self):
        system = CloudSystem(seed=3)
        handles = system.setup_topology(AttackTopology.E1_SEPARATE_WQ_SHARED_ENGINE)
        detector = AttackDetector(system.device)
        detector.start(system.timeline)

        attack = DsaDevTlbAttack(handles.attacker, wq_id=handles.attacker_wq)
        attack.prime()
        for _ in range(120):
            system.timeline.idle_for_us(10)
            attack.probe()
        system.timeline.idle_for_us(2000)
        detector.stop()
        assert detector.findings_of(FindingKind.DEVTLB_PROBE_CADENCE)

    def test_bulk_victim_traffic_not_flagged(self):
        """A genuine bulk workload moves real bytes: no probe finding."""
        system = CloudSystem(seed=4)
        handles = system.setup_topology(AttackTopology.E1_SEPARATE_WQ_SHARED_ENGINE)
        detector = AttackDetector(system.device)
        detector.start(system.timeline)

        victim = VppVictim(handles.victim, wq_id=handles.victim_wq)
        packets = [PacketEvent(time_us=20.0 * i, size_bytes=1500) for i in range(100)]
        victim.schedule_trace(system.timeline, packets, system.clock.now)
        system.timeline.idle_for_us(5000)
        detector.stop()
        assert not detector.findings_of(FindingKind.DEVTLB_PROBE_CADENCE)


class TestDetectorLifecycle:
    def test_stop_halts_polling(self):
        system = CloudSystem(seed=5)
        system.setup_topology(AttackTopology.E0_SHARED_WQ_SHARED_ENGINE)
        detector = AttackDetector(system.device)
        detector.start(system.timeline)
        system.timeline.idle_for_us(3000)
        detector.stop()
        system.timeline.idle_for_us(2000)
        polls = detector.polls
        system.timeline.idle_for_us(5000)
        assert detector.polls == polls

    def test_custom_thresholds(self):
        config = DetectorConfig(rejection_ratio_threshold=0.9, min_submissions=1000)
        system = CloudSystem(seed=6)
        handles = system.setup_topology(AttackTopology.E0_SHARED_WQ_SHARED_ENGINE)
        detector = AttackDetector(system.device, config)
        detector.start(system.timeline)
        attack = DsaSwqAttack(handles.attacker, wq_id=0, anchor_bytes=1 << 21)
        for _ in range(5):
            attack.run_round(idle_cycles=us_to_cycles(50), timeline=system.timeline)
        detector.stop()
        # Thresholds set absurdly high: nothing flagged.
        assert not detector.findings_of(FindingKind.SWQ_CONGESTION_PROBING)
