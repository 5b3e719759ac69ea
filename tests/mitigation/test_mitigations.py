"""Tests for the Section VII mitigations and the Fig. 14 harness."""

import numpy as np
import pytest

from repro.core.devtlb_attack import DsaDevTlbAttack
from repro.core.swq_attack import DsaSwqAttack
from repro.dsa.descriptor import make_noop
from repro.hw.noise import Environment
from repro.hw.units import us_to_cycles
from repro.mitigation.overhead import (
    measure_dsa_throughput,
    mitigation_overhead_sweep,
)
from repro.mitigation.partitioning import (
    DevTlbScrubber,
    hardware_partitioned_config,
    privileged_dmwr_config,
)
from repro.virt.system import AttackTopology, CloudSystem


class TestHardwarePartitioning:
    def test_partitioned_devtlb_blocks_cross_vm_eviction(self):
        """Hardware fix #1 kills DSA_DevTLB."""
        system = CloudSystem(seed=1, device_config=hardware_partitioned_config())
        handles = system.setup_topology(AttackTopology.E1_SEPARATE_WQ_SHARED_ENGINE)
        attack = DsaDevTlbAttack(handles.attacker, wq_id=handles.attacker_wq)
        attack.calibrate(samples=40)
        victim = handles.victim
        v_portal = victim.portal(handles.victim_wq)
        v_comp = victim.comp_record()
        attack.prime()
        v_portal.submit_wait(make_noop(victim.pasid, v_comp))
        assert not attack.probe().evicted  # victim no longer observable

    def test_partitioned_config_preserves_other_settings(self):
        from repro.dsa.device import DsaDeviceConfig

        base = DsaDeviceConfig(engine_count=2)
        config = hardware_partitioned_config(base)
        assert config.engine_count == 2
        assert config.devtlb.pasid_partitioned


class TestPrivilegedDmwr:
    def test_zf_always_clear_for_unprivileged(self):
        """Hardware fix #2 kills DSA_SWQ: the probe learns nothing."""
        system = CloudSystem(seed=2, device_config=privileged_dmwr_config())
        handles = system.setup_topology(AttackTopology.E0_SHARED_WQ_SHARED_ENGINE)
        attack = DsaSwqAttack(handles.attacker, wq_id=0, anchor_bytes=1 << 21)
        victim = handles.victim
        v_portal = victim.portal(0)

        from repro.dsa.descriptor import Descriptor
        from repro.dsa.opcodes import DescriptorFlags, Opcode

        noop = Descriptor(
            opcode=Opcode.NOOP, pasid=victim.pasid, flags=DescriptorFlags.NONE
        )
        system.timeline.schedule_after_us(20, lambda: v_portal.enqcmd(noop))
        result = attack.run_round(idle_cycles=us_to_cycles(40), timeline=system.timeline)
        assert not result.victim_detected  # flag hidden even though full

    def test_submissions_still_work(self):
        system = CloudSystem(seed=3, device_config=privileged_dmwr_config())
        handles = system.setup_topology(AttackTopology.E0_SHARED_WQ_SHARED_ENGINE)
        victim = handles.victim
        portal = victim.portal(0)
        comp = victim.comp_record()
        result = portal.submit_wait(make_noop(victim.pasid, comp))
        from repro.dsa.completion import CompletionStatus

        assert result.record.status is CompletionStatus.SUCCESS

    def test_overfull_submission_silently_dropped(self):
        system = CloudSystem(seed=4, device_config=privileged_dmwr_config())
        handles = system.setup_topology(
            AttackTopology.E0_SHARED_WQ_SHARED_ENGINE, wq_size=3
        )
        victim = handles.victim
        portal = victim.portal(0)
        comp = victim.comp_record()
        from repro.dsa.descriptor import make_memcpy

        big = make_memcpy(
            victim.pasid, victim.buffer(1 << 22), victim.buffer(1 << 22), 1 << 22, comp
        )
        for _ in range(3):
            portal.enqcmd(big)
        assert portal.hidden_dmwr_drops == 0
        portal.enqcmd(big)  # fourth cannot fit within the retry slot
        assert portal.hidden_dmwr_drops == 1

    @pytest.mark.parametrize("environment", list(Environment), ids=lambda e: e.name)
    def test_mitigation_survives_every_environment(self, environment):
        """Table III's environments keep the Section VII mitigation on."""
        system = CloudSystem(
            seed=6, environment=environment, device_config=privileged_dmwr_config()
        )
        assert system.device.config.environment is environment
        assert system.device.config.dmwr_privileged


class TestScrubber:
    def test_scrubber_evicts_attacker_entries(self):
        system = CloudSystem(seed=5)
        handles = system.setup_topology(AttackTopology.E1_SEPARATE_WQ_SHARED_ENGINE)
        daemon_vm = system.create_vm("host")
        daemon = daemon_vm.spawn_process("scrubber")
        system.open_portal(daemon, handles.attacker_wq)
        scrubber = DevTlbScrubber(
            daemon, handles.attacker_wq, period_us=5.0, rng=np.random.default_rng(0)
        )
        scrubber.start(system.timeline)

        attack = DsaDevTlbAttack(handles.attacker, wq_id=handles.attacker_wq)
        attack.prime()
        evictions = 0
        for _ in range(40):
            system.timeline.idle_for_us(10)
            evictions += attack.probe().evicted
        scrubber.stop()
        # The attacker sees constant evictions even with a quiet victim:
        # its observations no longer correlate with tenant activity.
        assert evictions > 20
        assert scrubber.scrubs > 0

    def test_scrubber_invalid_period_rejected(self):
        system = CloudSystem(seed=6)
        handles = system.setup_topology(AttackTopology.E0_SHARED_WQ_SHARED_ENGINE)
        with pytest.raises(ValueError):
            DevTlbScrubber(handles.attacker, 0, period_us=0)

    def test_stop_halts_scrubbing(self):
        system = CloudSystem(seed=7)
        handles = system.setup_topology(AttackTopology.E0_SHARED_WQ_SHARED_ENGINE)
        daemon = system.create_vm("host").spawn_process("scrubber")
        system.open_portal(daemon, 0)
        scrubber = DevTlbScrubber(daemon, 0, period_us=5.0)
        scrubber.start(system.timeline)
        system.timeline.idle_for_us(50)
        scrubber.stop()
        system.timeline.idle_for_us(20)  # lets the stop tick drain
        count = scrubber.scrubs
        system.timeline.idle_for_us(100)
        assert scrubber.scrubs == count


class TestOverheadHarness:
    def test_throughput_increases_with_size(self):
        system = CloudSystem(seed=8)
        handles = system.setup_topology(AttackTopology.E1_SEPARATE_WQ_SHARED_ENGINE)
        small = measure_dsa_throughput(handles.victim, handles.victim_wq, 256, 50)
        big = measure_dsa_throughput(handles.victim, handles.victim_wq, 65536, 50)
        assert big > 10 * small

    def test_fig14_shape(self):
        """Mitigation overhead is largest at the smallest transfer size
        and positive everywhere (paper: up to 15.7%/17.9% at 256 B)."""
        rows = mitigation_overhead_sweep([256, 65536], iterations=80)
        by_key = {(r.size_bytes, r.path): r for r in rows}
        for path in ("dsa", "dto"):
            small = by_key[(256, path)]
            large = by_key[(65536, path)]
            assert small.overhead_percent > large.overhead_percent
            assert 8 <= small.overhead_percent <= 25
            assert large.overhead_percent > 0
