"""Ablations over the design choices DESIGN.md calls out.

These are not paper artifacts; they probe *why* the attacks work by
toggling one microarchitectural property at a time:

* PASID-partitioned DevTLB kills the DevTLB channel.
* Privileged DMWr kills the SWQ channel.
* More slots per sub-entry weaken eviction-based signaling.
* An extra processing unit per engine breaks the SWQ anchor.
* Coarser sampling degrades website-fingerprinting accuracy.
"""

import numpy as np

from repro.covert.channel import run_devtlb_covert_channel, run_swq_covert_channel
from repro.dsa.device import DsaDeviceConfig
from repro.dsa.engine import EngineTiming
from repro.experiments import fig11_wf_classification
from repro.experiments.runner import execute_plan
from repro.experiments.wf_common import WfSamplerSettings
from repro.mitigation.partitioning import (
    hardware_partitioned_config,
    privileged_dmwr_config,
)
from repro.virt.system import CloudSystem


def test_bench_ablation_pasid_partitioning_kills_devtlb_channel(once):
    def run_pair_safe():
        from repro.errors import ConfigurationError

        baseline = run_devtlb_covert_channel(payload_bits=128, seed=7)
        try:
            partitioned_error = None
            partitioned = run_devtlb_covert_channel(
                payload_bits=128,
                seed=7,
                system=CloudSystem(seed=7, device_config=hardware_partitioned_config()),
            )
        except ConfigurationError as exc:  # receiver never hears a preamble
            partitioned = None
            partitioned_error = exc
        return baseline, partitioned, partitioned_error

    baseline, partitioned, error = once(run_pair_safe)
    print(f"\nbaseline BER {baseline.error_rate * 100:.1f}%")
    assert baseline.error_rate < 0.15
    # Under partitioning the channel either never synchronizes or decodes
    # garbage (BER near 50%).
    if partitioned is None:
        print(f"partitioned channel failed to synchronize: {error}")
    else:
        print(f"partitioned BER {partitioned.error_rate * 100:.1f}%")
        assert partitioned.error_rate > 0.35


def test_bench_ablation_privileged_dmwr_kills_swq_channel(once):
    def run_pair():
        from repro.errors import ConfigurationError

        baseline = run_swq_covert_channel(payload_bits=96, seed=9)
        try:
            mitigated = run_swq_covert_channel(
                payload_bits=96,
                seed=9,
                system=CloudSystem(seed=9, device_config=privileged_dmwr_config()),
            )
            error = None
        except ConfigurationError as exc:
            mitigated, error = None, exc
        return baseline, mitigated, error

    baseline, mitigated, error = once(run_pair)
    print(f"\nbaseline BER {baseline.error_rate * 100:.1f}%")
    assert baseline.error_rate < 0.25
    if mitigated is None:
        print(f"mitigated channel failed to synchronize: {error}")
    else:
        print(f"mitigated BER {mitigated.error_rate * 100:.1f}%")
        assert mitigated.error_rate > 0.35


def test_bench_ablation_subentry_slots(once):
    """With multiple slots per sub-entry the attacker's entry survives
    a single victim access, silencing the channel."""
    from repro.ats.devtlb import DevTlbConfig
    from repro.core.devtlb_attack import DsaDevTlbAttack
    from repro.dsa.descriptor import make_noop
    from repro.virt.system import AttackTopology

    def eviction_rate(slots: int) -> float:
        config = DsaDeviceConfig(devtlb=DevTlbConfig(slots_per_subentry=slots))
        system = CloudSystem(seed=11, device_config=config)
        handles = system.setup_topology(AttackTopology.E1_SEPARATE_WQ_SHARED_ENGINE)
        # Fixed mid-band threshold: online calibration assumes the
        # single-slot structure (its self-evictor stops evicting once a
        # sub-entry holds two slots), which is itself part of the ablation.
        attack = DsaDevTlbAttack(handles.attacker, wq_id=handles.attacker_wq)
        victim = handles.victim
        v_portal = victim.portal(handles.victim_wq)
        v_comp = victim.comp_record()
        attack.prime()
        hits = 0
        for _ in range(40):
            v_portal.submit_wait(make_noop(victim.pasid, v_comp))
            hits += attack.probe().evicted
        return hits / 40

    def run_sweep():
        return {slots: eviction_rate(slots) for slots in (1, 2, 4)}

    rates = once(run_sweep)
    print(f"\neviction rate by slots/sub-entry: {rates}")
    assert rates[1] > 0.9  # the real device: every victim op visible
    assert rates[2] < 0.2  # one extra slot already hides the victim
    assert rates[4] < 0.2


def test_bench_ablation_engine_concurrency_breaks_swq_anchor(once):
    """A second processing unit drains the fillers behind the anchor,
    so the armed queue never stays full."""
    from repro.core.swq_attack import DsaSwqAttack
    from repro.hw.units import us_to_cycles
    from repro.virt.system import AttackTopology

    def detection_rate(concurrency: int) -> float:
        config = DsaDeviceConfig(
            timing=EngineTiming(concurrent_descriptors=concurrency)
        )
        system = CloudSystem(seed=13, device_config=config)
        handles = system.setup_topology(AttackTopology.E0_SHARED_WQ_SHARED_ENGINE)
        attack = DsaSwqAttack(handles.attacker, wq_id=0, anchor_bytes=1 << 21)
        victim = handles.victim
        v_portal = victim.portal(0)
        from repro.dsa.descriptor import Descriptor
        from repro.dsa.opcodes import DescriptorFlags, Opcode

        noop = Descriptor(
            opcode=Opcode.NOOP, pasid=victim.pasid, flags=DescriptorFlags.NONE
        )
        detections = 0
        for _ in range(20):
            system.timeline.schedule_after_us(15, lambda: v_portal.enqcmd(noop))
            result = attack.run_round(
                idle_cycles=us_to_cycles(30), timeline=system.timeline
            )
            detections += result.victim_detected
        return detections / 20

    def run_sweep():
        return {c: detection_rate(c) for c in (1, 2)}

    rates = once(run_sweep)
    print(f"\nSWQ detection rate by engine concurrency: {rates}")
    assert rates[1] > 0.9  # serial engine: the attack works
    assert rates[2] < 0.5  # pipelined engine: fillers drain, probe blind


def test_bench_ablation_arbiter_policy(once):
    """The WQ-priority arbiter protects work-descriptor latency from
    batch traffic; a FIFO arbiter would let a batch head-of-line-block it
    (which is also why batch descriptors can't congest the real queue)."""
    from repro.dsa.arbiter import ArbiterPolicy
    from repro.dsa.batch import write_batch_list
    from repro.dsa.descriptor import BatchDescriptor, make_memcpy, make_noop
    from repro.virt.system import AttackTopology

    def work_latency_behind_batch(policy: ArbiterPolicy) -> float:
        config = DsaDeviceConfig(arbiter_policy=policy)
        system = CloudSystem(seed=21, device_config=config)
        system.setup_topology(AttackTopology.E0_SHARED_WQ_SHARED_ENGINE)
        proc = system.vms["attacker-vm"].process("attacker")
        portal = proc.portal(0)
        list_addr = proc.buffer(4096)
        src, dst = proc.buffer(1 << 20), proc.buffer(1 << 20)
        children = [
            make_memcpy(proc.pasid, src, dst, 1 << 18, proc.comp_record())
            for _ in range(4)
        ]
        write_batch_list(proc.space, list_addr, children)
        batch = BatchDescriptor(
            pasid=proc.pasid, desc_list_addr=list_addr, count=4,
            completion_addr=proc.comp_record(),
        )
        latencies = []
        for _ in range(10):
            portal.enqcmd(batch)
            system.clock.advance(3_000)  # let the fetch land first
            system.device.advance_to(system.clock.now)
            work = make_noop(proc.pasid, proc.comp_record())
            ticket = portal.submit(work)
            portal.wait(ticket)
            latencies.append(ticket.completion_time - ticket.enqueue_time)
            system.clock.advance(100_000_000)
            system.device.advance_to(system.clock.now)
        return float(np.mean(latencies))

    def run_pair():
        return {
            "wq-priority": work_latency_behind_batch(ArbiterPolicy.WQ_PRIORITY),
            "fifo": work_latency_behind_batch(ArbiterPolicy.FIFO),
        }

    latencies = once(run_pair)
    print(f"\nwork latency behind a batch burst: {latencies}")
    # Under FIFO the batched memcpys run first; the real policy keeps the
    # work descriptor fast.
    assert latencies["fifo"] > 3 * latencies["wq-priority"]


def test_bench_ablation_swq_wq_size(once):
    """SWQ covert-channel sensitivity to the queue size.

    Larger queues make arming slower (more fillers per round) but the
    channel works at any size >= 3; the congest cost eats into the
    sensing span at very large sizes.
    """
    from repro.covert.channel import run_swq_covert_channel
    from repro.covert.protocol import CovertConfig

    def run_sweep():
        rates = {}
        # Bigger queues need longer windows: arming and draining
        # wq_size-1 fillers eats into the sensing span.
        for wq_size, window_us in ((4, 110.0), (16, 110.0), (64, 450.0)):
            result = run_swq_covert_channel(
                payload_bits=96,
                seed=15,
                wq_size=wq_size,
                config=CovertConfig(
                    bit_window_us=window_us,
                    sender_jitter_us=21.0,
                    preamble_ones=16,
                    preamble_burst_bits=4,
                ),
            )
            rates[(wq_size, window_us)] = result.error_rate
        return rates

    rates = once(run_sweep)
    print(f"\nSWQ covert BER by (wq_size, window): {rates}")
    for (wq_size, _), ber in rates.items():
        assert ber < 0.30, f"channel unusable at wq_size={wq_size}"
    # The rate cost of large queues: 110 us windows work at wq<=16 but
    # wq=64 needs ~4x longer windows (see the sweep's window column).


def test_bench_ablation_sampling_period(once):
    """Website-fingerprinting accuracy degrades as sampling coarsens."""

    def accuracy_at(period_us: float, samples_per_slot: int) -> float:
        result = execute_plan(
            fig11_wf_classification.trial_plan(
                sites=4,
                visits_per_site=6,
                settings=WfSamplerSettings(
                    sample_period_us=period_us,
                    samples_per_slot=samples_per_slot,
                    slots=100,
                ),
                epochs=30,
                hidden=10,
                seed=500,
            )
        )
        return result.bilstm_accuracy

    def run_sweep():
        return {
            "fine (100us)": accuracy_at(100.0, 40),
            "coarse (2000us)": accuracy_at(2000.0, 2),
        }

    accuracies = once(run_sweep)
    print(f"\nWF accuracy by sampling period: {accuracies}")
    assert accuracies["fine (100us)"] >= accuracies["coarse (2000us)"]
