"""The invariant monitor core: attachment, cadence, and violation reports."""

import pytest

from repro.dsa.descriptor import make_memcpy, make_noop
from repro.errors import ConfigurationError, InvariantViolation
from repro.invariants import (
    InvariantChecker,
    InvariantMonitor,
    MonitorMode,
    coerce_mode,
)
from repro.invariants.monitor import EVENT_WINDOW
from repro.virt.system import CloudSystem

from tests.conftest import build_host


class TestModeCoercion:
    def test_accepts_enum_and_values(self):
        assert coerce_mode(MonitorMode.STRICT) is MonitorMode.STRICT
        assert coerce_mode("strict") is MonitorMode.STRICT
        assert coerce_mode("sampling") is MonitorMode.SAMPLING
        assert coerce_mode("sample") is MonitorMode.SAMPLING  # alias
        assert coerce_mode(" STRICT ") is MonitorMode.STRICT

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            coerce_mode("paranoid")

    def test_rejects_bad_cadence(self):
        with pytest.raises(ConfigurationError):
            InvariantMonitor(sample_every=0)


class TestAttachment:
    def test_attach_device_hooks_all_satellites(self, host):
        monitor = InvariantMonitor()
        monitor.attach_device(host.device)
        assert host.device.invariant_monitor is monitor
        assert host.device.devtlb.invariant_monitor is monitor
        assert host.device.agent.invariant_monitor is monitor
        assert host.device.prs.invariant_monitor is monitor
        assert all(
            engine.invariant_monitor is monitor
            for engine in host.device.engines.values()
        )
        assert host.device.clock.invariant_monitor is monitor
        assert monitor.device is host.device
        # Re-attaching the same device is idempotent.
        monitor.attach_device(host.device)

    def test_one_monitor_per_device(self, host):
        monitor = InvariantMonitor()
        monitor.attach_device(host.device)
        other = build_host(seed=7)
        with pytest.raises(ConfigurationError):
            monitor.attach_device(other.device)

    def test_attach_system_adopts_seed(self):
        system = CloudSystem(seed=99, invariants="off")
        monitor = InvariantMonitor()
        monitor.attach_system(system)
        assert monitor.seed == 99
        assert system.invariant_monitor is monitor

    def test_system_invariants_param_builds_monitor(self):
        system = CloudSystem(seed=3, invariants="strict")
        assert system.invariant_monitor is not None
        assert system.invariant_monitor.mode is MonitorMode.STRICT
        assert system.invariant_monitor.seed == 3

    def test_system_defaults_to_off(self):
        assert CloudSystem(seed=3).invariant_monitor is None

    def test_env_var_turns_monitoring_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_INVARIANTS", "sampling")
        system = CloudSystem(seed=3)
        assert system.invariant_monitor is not None
        assert system.invariant_monitor.mode is MonitorMode.SAMPLING
        # An explicit param beats the environment.
        monkeypatch.setenv("REPRO_INVARIANTS", "strict")
        assert CloudSystem(seed=3, invariants="off").invariant_monitor is None


class _CountingChecker(InvariantChecker):
    name = "counting"
    kinds = frozenset({"submit"})

    def __init__(self):
        self.observed = 0
        self.audited = 0
        self.last_context = None
        self.last_payload = None

    def observe(self, monitor, kind, timestamp, context, payload):
        self.observed += 1
        self.last_context = dict(context)
        self.last_payload = payload

    def audit(self, monitor):
        self.audited += 1


class TestEventStream:
    def test_kinds_scope_observation(self):
        checker = _CountingChecker()
        monitor = InvariantMonitor(checkers=[checker])
        monitor.note("submit", 10, wq_id=0)
        monitor.note("dispatch", 11, wq_id=0)
        assert checker.observed == 1

    def test_none_context_values_are_dropped(self):
        checker = _CountingChecker()
        monitor = InvariantMonitor(checkers=[checker])
        monitor.note("submit", 10, wq_id=0, pasid=None)
        assert checker.last_context == {"wq_id": 0}
        assert "pasid" not in monitor.event_window()[-1]

    def test_payload_not_retained_in_window(self):
        checker = _CountingChecker()
        monitor = InvariantMonitor(checkers=[checker])
        sentinel = object()
        monitor.note("submit", 10, payload=sentinel, wq_id=0)
        assert checker.last_payload is sentinel
        window = monitor.event_window()
        assert all(sentinel not in event.values() for event in window)

    def test_event_window_is_bounded(self):
        monitor = InvariantMonitor(checkers=[])
        for i in range(EVENT_WINDOW + 6):
            monitor.note("submit", i)
        window = monitor.event_window()
        assert len(window) == EVENT_WINDOW
        assert window[0]["seq"] == 7
        assert window[-1]["seq"] == EVENT_WINDOW + 6

    def test_missing_timestamp_reuses_latest(self):
        monitor = InvariantMonitor(checkers=[])
        monitor.note("submit", 500)
        monitor.note("devtlb")  # DevTLB has no clock reference
        assert monitor.event_window()[-1]["t"] == 500

    def test_strict_audits_every_event(self):
        checker = _CountingChecker()
        monitor = InvariantMonitor(mode="strict", checkers=[checker])
        for i in range(5):
            monitor.note("submit", i)
        assert checker.audited == 5

    def test_sampling_audits_every_nth_event(self):
        checker = _CountingChecker()
        monitor = InvariantMonitor(
            mode="sampling", sample_every=4, checkers=[checker]
        )
        for i in range(10):
            monitor.note("submit", i)
        assert checker.audited == 2  # events 4 and 8
        monitor.check_all()
        assert checker.audited == 3


class TestViolationReports:
    def test_clock_backwards_trips_timeline(self, host):
        monitor = InvariantMonitor()
        monitor.attach_device(host.device)
        host.clock.advance(1_000)
        with pytest.raises(InvariantViolation) as info:
            monitor.observe_clock(10)
        assert info.value.invariant == "timeline"

    def test_violation_is_replayable(self):
        system = CloudSystem(seed=41, invariants="off")
        monitor = InvariantMonitor(
            mode="strict", seed=None, repro_hint="python -m repro.invariants.soak --seed 41"
        )
        monitor.attach_system(system)
        system.clock.advance(10)
        monitor.note("submit", 10, wq_id=0)
        with pytest.raises(InvariantViolation) as info:
            monitor.fail("wq-credits", "synthetic trip")
        violation = info.value
        assert violation.seed == 41
        assert violation.repro == "python -m repro.invariants.soak --seed 41"
        assert violation.events[-1]["kind"] == "submit"
        assert violation.snapshot["monitor.mode"] == "strict"
        assert "clock.now" in violation.snapshot
        described = violation.describe()
        assert "seed" in described and "41" in described

    def test_monitor_is_read_only(self):
        """An attached strict monitor must not perturb the simulation."""

        def run(invariants):
            system = CloudSystem(seed=17, invariants=invariants)
            system.device.configure_group(0, (0,))
            from repro.dsa.wq import WorkQueueConfig, WqMode

            system.device.configure_wq(
                WorkQueueConfig(wq_id=0, size=16, mode=WqMode.SHARED, group_id=0)
            )
            vm = system.create_vm("vm")
            proc = vm.spawn_process("p")
            system.open_portal(proc, 0)
            src = proc.space.mmap(4096)
            dst = proc.space.mmap(4096)
            comp = proc.space.mmap(4096)
            latencies = []
            for _ in range(8):
                ticket = proc.portals[0].submit_wait(
                    make_memcpy(proc.pasid, src, dst, 256, comp)
                )
                latencies.append(ticket.latency_cycles)
                proc.portals[0].submit_wait(make_noop(proc.pasid, comp))
            return latencies, system.clock.now

        assert run("off") == run("strict")


class TestRunnerWiring:
    def test_invariant_exit_code_is_distinct(self):
        from repro.experiments.checkpoint import STATUS_INVARIANT
        from repro.experiments.runner import _STATUS_EXIT, EXIT_INVARIANT

        assert EXIT_INVARIANT == 6
        assert _STATUS_EXIT[STATUS_INVARIANT] == EXIT_INVARIANT
        assert list(_STATUS_EXIT.values()).count(EXIT_INVARIANT) == 1
