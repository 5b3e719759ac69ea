#!/usr/bin/env python3
"""Defense-side demo: detect, then jam, a live DSAssassin attacker.

A host management daemon runs the :class:`AttackDetector` while an
attacker conducts the SWQ Congest+Probe and DevTLB Prime+Probe attacks.
After detection fires, the host deploys the DevTLB scrubber and the demo
shows the attacker's observations turning into noise.

Run:  python examples/defense_monitoring.py
"""

import numpy as np

from repro.core.devtlb_attack import DsaDevTlbAttack
from repro.dsa.descriptor import make_noop
from repro.mitigation.detector import AttackDetector, DetectorConfig
from repro.mitigation.partitioning import DevTlbScrubber
from repro.virt.system import AttackTopology, CloudSystem


def main() -> None:
    system = CloudSystem(seed=99)
    handles = system.setup_topology(AttackTopology.E1_SEPARATE_WQ_SHARED_ENGINE)
    attacker, victim = handles.attacker, handles.victim

    detector = AttackDetector(system.device, DetectorConfig(poll_period_us=500.0))
    detector.start(system.timeline)
    print("host: attack detector armed (500 us polling)")

    # --- the attacker probes the DevTLB at 10 us cadence -------------
    attack = DsaDevTlbAttack(attacker, wq_id=handles.attacker_wq)
    attack.calibrate(samples=40)
    attack.prime()
    for _ in range(300):
        system.timeline.idle_for_us(10)
        attack.probe()
    system.timeline.idle_for_us(1000)

    print(f"host: detector raised {len(detector.findings)} finding(s):")
    for finding in detector.findings[:3]:
        print(f"  [{finding.kind.value}] {finding.detail}")

    # --- response: deploy the scrubber --------------------------------
    daemon = system.create_vm("host-daemon").spawn_process("scrubber")
    system.open_portal(daemon, handles.attacker_wq)
    scrubber = DevTlbScrubber(daemon, handles.attacker_wq, period_us=8.0,
                              rng=np.random.default_rng(1))
    scrubber.start(system.timeline)
    print("host: DevTLB scrubber deployed (8 us period)")

    # --- the attacker tries to watch the victim again -----------------
    v_portal = victim.portal(handles.victim_wq)
    v_comp = victim.comp_record()
    readings = []
    for i in range(24):
        if i % 2 == 0:
            v_portal.enqcmd(make_noop(victim.pasid, v_comp))  # victim active
        system.timeline.idle_for_us(15)
        readings.append(int(attack.probe().evicted))
    truth = [i % 2 == 0 for i in range(24)]
    agreement = np.mean([r == t for r, t in zip(readings, truth)])
    print(f"attacker reads under scrubbing: {''.join(map(str, readings))}")
    print(f"agreement with victim activity: {agreement * 100:.0f}% "
          f"(~50% = the channel is jammed)")
    scrubber.stop()
    detector.stop()


if __name__ == "__main__":
    main()
