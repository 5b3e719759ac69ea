"""Replay-budget guards: how often a trace replays the device, and how
many Python calls each descriptor costs.

A polled wait (Listing 1) skips the spins that end before the device's
next replay event, so a probe costs the device a handful of
:meth:`~repro.dsa.device.DsaDevice.advance_to` calls instead of one per
200-cycle spin.  This test counts those calls over one fixed, small
Fig. 13 trace -- the DevTLB sampler against an LLM inference on the DTO
runtime -- per descriptor the device completed.  The count is
deterministic, so a change that reintroduces dead polls fails here
without timing anything.  Replaying every spin, the same trace made
51,271 calls for 225 completed descriptors (227.9 each); jumping to the
next event makes 450 (2.0 each).

The second guard counts every Python function call (``sys.setprofile``
``call`` events; built-ins are not counted) over a small fixed Fig. 9
trace -- one DevTLB and one SWQ covert transmission -- per descriptor
the two devices completed.  Like the replay count it is deterministic
and host-independent.  With an arbiter-choice object, an ``_InFlight``
wrapper and an ``ExecutionOutcome`` per descriptor, an arbiter round on
every busy engine, and a PASID lookup for every noop, the same trace
made 130,441 calls for 1,459 descriptors (89.4 each); the single
dispatch path made 77,913 (53.4 each).  A dict-backed IOTLB, a DevTLB
that reads its canary once and counts its own cross-page requests make
73,323 (50.3 each).
"""

import sys

from repro.core import DsaDevTlbAttack
from repro.core.sampling import DevTlbSampler
from repro.covert import CovertConfig
from repro.covert.channel import run_devtlb_covert_channel, run_swq_covert_channel
from repro.experiments.fig13_llm import LlmSamplerSettings
from repro.virt.system import AttackTopology, CloudSystem
from repro.workloads.dto import DtoRuntime
from repro.workloads.llm import LLM_ZOO, LlmInferenceWorkload

MAX_CALLS_PER_DESCRIPTOR = 2.5
MAX_PYTHON_CALLS_PER_DESCRIPTOR = 50.3

#: Its large weight copies keep the shared engine busy, so probes queue
#: behind them and their waits span many spins.
GEMMA3_4B = next(model for model in LLM_ZOO if model.name == "gemma3-4b")


def test_devtlb_trace_replays_at_most_budget_per_descriptor(monkeypatch):
    settings = LlmSamplerSettings(slots=4)
    system = CloudSystem(seed=13)
    handles = system.setup_topology(AttackTopology.E1_SEPARATE_WQ_SHARED_ENGINE)
    attack = DsaDevTlbAttack(handles.attacker, wq_id=handles.attacker_wq)
    attack.calibrate(samples=30)
    workload = LlmInferenceWorkload(
        DtoRuntime(handles.victim, wq_id=handles.victim_wq), GEMMA3_4B, system.rng
    )
    workload.schedule_inference(
        system.timeline, system.clock.now, duration_us=settings.trace_duration_us
    )
    sampler = DevTlbSampler(attack, system.timeline, settings.sampler_config())

    device = system.device
    calls = 0
    advance_to = device.advance_to

    def counting_advance_to(time):
        nonlocal calls
        calls += 1
        advance_to(time)

    monkeypatch.setattr(device, "advance_to", counting_advance_to)
    completed_before = device.stats.descriptors_completed
    trace = sampler.collect_trace()
    completed = device.stats.descriptors_completed - completed_before

    assert trace.sum() > 0, "the victim's inference should evict the probe"
    assert completed > 200
    assert calls / completed <= MAX_CALLS_PER_DESCRIPTOR, (calls, completed)


def test_fig09_trace_stays_within_python_call_budget():
    devtlb_system = CloudSystem(seed=2026)
    swq_system = CloudSystem(seed=2027)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        run_devtlb_covert_channel(
            payload_bits=32,
            system=devtlb_system,
            config=CovertConfig(bit_window_us=60.0),
        )
        run_swq_covert_channel(
            payload_bits=32,
            system=swq_system,
            config=CovertConfig(
                bit_window_us=180.0,
                sender_jitter_us=27.5,
                preamble_ones=16,
                preamble_burst_bits=4,
            ),
        )
    finally:
        sys.setprofile(None)
    completed = (
        devtlb_system.device.stats.descriptors_completed
        + swq_system.device.stats.descriptors_completed
    )
    assert completed > 500
    assert calls / completed <= MAX_PYTHON_CALLS_PER_DESCRIPTOR, (calls, completed)
