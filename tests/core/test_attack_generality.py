"""Attack generality: victims on dedicated queues, mixed topologies.

The DevTLB primitive only requires an *engine* shared with the victim —
the victim may sit behind a dedicated queue (movdir64b) and still leak,
which these tests pin down.
"""

from repro.core.devtlb_attack import DsaDevTlbAttack
from repro.dsa.descriptor import make_memcpy, make_noop
from repro.dsa.wq import WorkQueueConfig, WqMode
from repro.virt.system import CloudSystem


def build_mixed_queue_system():
    """Engine 0 serves a SWQ (attacker) and a DWQ (victim)."""
    system = CloudSystem(seed=47)
    device = system.device
    device.configure_group(0, (0,))
    device.configure_wq(
        WorkQueueConfig(wq_id=0, size=16, mode=WqMode.SHARED, group_id=0)
    )
    device.configure_wq(
        WorkQueueConfig(wq_id=1, size=16, mode=WqMode.DEDICATED, group_id=0)
    )
    attacker = system.create_vm("attacker-vm").spawn_process("attacker")
    victim = system.create_vm("victim-vm").spawn_process("victim")
    system.open_portal(attacker, 0)
    system.open_portal(victim, 1)
    return system, attacker, victim


class TestDedicatedQueueVictim:
    def test_dwq_victim_still_leaks_through_devtlb(self):
        system, attacker, victim = build_mixed_queue_system()
        attack = DsaDevTlbAttack(attacker, wq_id=0)
        attack.calibrate(samples=40)
        v_portal = victim.portal(1)
        v_comp = victim.comp_record()

        attack.prime()
        assert not attack.probe().evicted  # quiet

        v_portal.movdir64b(make_noop(victim.pasid, v_comp))
        v_portal.wait(v_portal.last_ticket)
        assert attack.probe().evicted  # the DWQ submission was visible

    def test_dwq_victim_memcpy_visible(self):
        system, attacker, victim = build_mixed_queue_system()
        attack = DsaDevTlbAttack(attacker, wq_id=0)
        attack.calibrate(samples=40)
        v_portal = victim.portal(1)
        src, dst = victim.buffer(16384), victim.buffer(16384)
        comp = victim.comp_record()

        attack.prime()
        v_portal.movdir64b(make_memcpy(victim.pasid, src, dst, 8192, comp))
        v_portal.wait(v_portal.last_ticket)
        assert attack.probe().evicted

    def test_swq_attack_cannot_reach_dwq_victim(self):
        """Congest+Probe needs a *shared* queue: the DWQ victim never
        takes the armed slot, so the SWQ primitive reads silence."""
        from repro.core.swq_attack import DsaSwqAttack
        from repro.hw.units import us_to_cycles

        system, attacker, victim = build_mixed_queue_system()
        attack = DsaSwqAttack(attacker, wq_id=0, anchor_bytes=1 << 21)
        v_portal = victim.portal(1)
        v_comp = victim.comp_record()
        system.timeline.schedule_after_us(
            20, lambda: v_portal.movdir64b(make_noop(victim.pasid, v_comp))
        )
        result = attack.run_round(
            idle_cycles=us_to_cycles(40), timeline=system.timeline
        )
        assert not result.victim_detected
