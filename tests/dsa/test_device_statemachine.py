"""Hypothesis state-machine test of device-level invariants.

Random interleavings of submissions (both queue modes, all sizes),
time advancement, environment switches and queue disables must never
violate:

* queue occupancy stays within [0, size];
* accepted submissions eventually all complete (conservation; an
  aborted descriptor completes too);
* the engine never runs more descriptors concurrently than it has
  processing units;
* device-local replay time never exceeds the shared clock.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.dsa.descriptor import make_memcpy, make_noop
from repro.hw.noise import Environment

from tests.conftest import build_host


class DeviceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.host = build_host(seed=99, wq_size=6)
        self.proc = self.host.new_process()
        self.comp = self.proc.comp_record()
        self.src = self.proc.buffer(1 << 20)
        self.dst = self.proc.buffer(1 << 20)
        self.accepted = 0

    @rule(size=st.sampled_from([0, 64, 4096, 1 << 16, 1 << 20]))
    def submit(self, size):
        if size == 0:
            descriptor = make_noop(self.proc.pasid, self.comp)
        else:
            descriptor = make_memcpy(self.proc.pasid, self.src, self.dst, size, self.comp)
        if not self.proc.portal.enqcmd(descriptor):
            self.accepted += 1

    @rule(cycles=st.integers(min_value=0, max_value=5_000_000))
    def advance(self, cycles):
        self.host.clock.advance(cycles)
        self.host.device.advance_to(self.host.clock.now)

    @rule(environment=st.sampled_from(list(Environment)))
    def switch_environment(self, environment):
        self.host.device.set_environment(environment)

    @rule()
    def disable(self):
        self.host.device.disable_wq(0)

    @invariant()
    def occupancy_bounded(self):
        wq = self.host.device.wq(0)
        assert 0 <= wq.occupancy <= wq.config.size

    @invariant()
    def engine_concurrency_bounded(self):
        for engine in self.host.device.engines.values():
            assert len(engine.inflight) <= engine.timing.concurrent_descriptors

    @invariant()
    def device_time_never_ahead_of_clock(self):
        assert self.host.device.time <= self.host.clock.now

    @invariant()
    def completions_never_exceed_accepted(self):
        assert self.host.device.stats.descriptors_completed <= self.accepted

    def teardown(self):
        # Drain: everything accepted must eventually complete.
        self.host.clock.advance(10_000_000_000)
        self.host.device.advance_to(self.host.clock.now)
        assert self.host.device.stats.descriptors_completed == self.accepted
        assert self.host.device.wq(0).occupancy == 0


DeviceMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestDeviceMachine = DeviceMachine.TestCase
