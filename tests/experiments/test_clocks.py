"""The injectable host clocks (`wall_clock`/`monotonic_clock`).

Every host-time read outside :mod:`repro.experiments.runner` routes
through these helpers (enforced statically by the DET002 lint rule), so
overriding them here controls *all* orchestration timing: manifest
timestamps, watchdog deadlines, and trial durations become
deterministic under test.
"""

import time

from repro.experiments.checkpoint import STATUS_DEADLINE, RunManifest
from repro.experiments.runner import (
    ExperimentPlan,
    TrialSpec,
    Watchdog,
    monotonic_clock,
    override_clocks,
    run_experiment,
    wall_clock,
)


class FakeClock:
    """A hand-cranked clock."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestClockHelpers:
    def test_defaults_track_host_clocks(self):
        # Comparing against the host clock IS the test.
        assert abs(wall_clock() - time.time()) < 5.0  # repro-lint: ignore[DET002]
        assert abs(monotonic_clock() - time.monotonic()) < 5.0  # repro-lint: ignore[DET002]

    def test_override_and_restore(self):
        with override_clocks(wall=lambda: 123.0, monotonic=lambda: 7.0):
            assert wall_clock() == 123.0
            assert monotonic_clock() == 7.0
        assert wall_clock() != 123.0

    def test_override_restores_after_exception(self):
        try:
            with override_clocks(wall=lambda: 1.0):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert abs(wall_clock() - time.time()) < 5.0  # repro-lint: ignore[DET002]

    def test_partial_override_leaves_other_clock(self):
        with override_clocks(monotonic=lambda: 9.0):
            assert monotonic_clock() == 9.0
            assert abs(wall_clock() - time.time()) < 5.0  # repro-lint: ignore[DET002]


class TestDeterministicStamping:
    def test_manifest_segments_stamp_via_wall_clock(self):
        manifest = RunManifest(
            experiment="fig04", seed=7, config={}, config_hash="x"
        )
        clock = FakeClock(start=1_000.0)
        with override_clocks(wall=clock):
            manifest.add_segment("start")
            clock.advance(5.0)
            manifest.add_segment("resume")
        assert [s["time"] for s in manifest.segments] == [1000.0, 1005.0]

    def test_watchdog_reads_monotonic_clock(self):
        clock = FakeClock()
        with override_clocks(monotonic=clock):
            dog = Watchdog(budget_s=10.0)
            dog.note_trial(3.0)
            assert dog.check() is None
            clock.advance(8.0)  # 2s left < longest trial (3s): won't fit
            assert dog.check() is not None

    def test_guarded_trials_budget_uses_monotonic_clock(self):
        clock = FakeClock()

        def trial():
            clock.advance(4.0)
            return "ok"

        plan = ExperimentPlan(
            name="clocked",
            seed=0,
            config={},
            trials=tuple(TrialSpec(key=f"t/{i}", fn=trial) for i in range(5)),
            finalize=dict,
        )
        with override_clocks(monotonic=clock):
            outcome = run_experiment(plan, deadline_s=10.0)
        # At 8 s the 2 s left cannot fit another 4 s trial.
        assert outcome.status == STATUS_DEADLINE
        assert outcome.completed == 2
        assert outcome.skipped == 3
        assert outcome.elapsed_s == 8.0
