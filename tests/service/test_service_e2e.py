"""End-to-end service scenarios: clean, chaotic, drained, overloaded.

These run whole service lifecycles on the device-time loop (marked
``slow``; run via ``scripts/check.sh full``):

* a clean run completes every offer with balanced books and a
  bit-identical report on re-run (the determinism bar);
* a chaos storm over every ``SERVICE_SITES`` member plus the
  session-kill lane stays exactly accounted with no unacknowledged
  faults;
* a mid-run drain checkpoints the in-flight sessions and a resumed run
  finishes them — same logical total, no session lost or double-counted
  (restart-resume equivalence);
* a starved configuration opens the circuit and maps to the documented
  ``EXIT_OVERLOAD`` code.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.errors import (
    InvariantViolation,
    ResumeMismatchError,
    ServiceError,
)
from repro.experiments.runner import EXIT_INTERRUPTED, EXIT_OK, EXIT_OVERLOAD
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.sites import SERVICE_SITES
from repro.service.app import CHECKPOINT_NAME, AttackService
from repro.service.config import ServiceConfig
from repro.service.loadgen import LoadConfig, build_schedule, make_session_killer

pytestmark = pytest.mark.slow


def _config(**kwargs):
    kwargs.setdefault("seed", 11)
    kwargs.setdefault("lanes", 2)
    kwargs.setdefault("collect_session_ids", True)
    return ServiceConfig(**kwargs)


def _schedule(sessions=20, **kwargs):
    kwargs.setdefault("seed", 3)
    return build_schedule(LoadConfig(sessions=sessions, **kwargs))


class TestCleanRun:
    def test_all_sessions_complete_with_balanced_books(self):
        report = AttackService(_config()).run(_schedule())
        acct = report.accounting
        assert report.status == "completed"
        assert report.exit_code == EXIT_OK
        assert acct.offered == 20
        assert acct.completed == 20
        assert acct.balances()
        assert report.unacknowledged_faults == {}
        assert report.latency_cycles["p50"] > 0
        assert report.latency_cycles["p99"] >= report.latency_cycles["p50"]

    def test_report_is_deterministic_across_runs(self):
        reports = [
            AttackService(_config()).run(_schedule()).to_json()
            for _ in range(2)
        ]
        assert json.dumps(reports[0], sort_keys=True) == json.dumps(
            reports[1], sort_keys=True
        )

    def test_service_instance_is_one_shot(self):
        service = AttackService(_config())
        service.run(_schedule(sessions=2))
        with pytest.raises(ServiceError, match="runs once"):
            service.run(_schedule(sessions=2))


class TestLedgerIsLoadBearing:
    def test_duplicate_session_id_is_fatal_not_silent(self):
        # A schedule that replays a finished session's id must abort
        # the run with the checker's violation — not strand an offer
        # task and wedge (the failure mode of a service that resumes a
        # checkpoint AND re-offers the same generated schedule).
        schedule = _schedule(sessions=3)
        replay = replace(schedule[0], arrival_cycles=60_000_000)
        with pytest.raises(InvariantViolation, match="illegal transition"):
            AttackService(_config()).run(list(schedule) + [replay])


class TestChaosStorm:
    def test_every_service_site_plus_kill_lane_stays_accounted(self):
        config = _config(
            fault_plan=FaultPlan(
                seed=11,
                specs=tuple(
                    FaultSpec(
                        site=site,
                        probability=0.08,
                        magnitude_cycles=200_000,
                    )
                    for site in SERVICE_SITES
                ),
            ),
        )
        load = LoadConfig(
            sessions=40,
            seed=3,
            kill_probability=0.5,
            kill_interval_cycles=2_000_000,
        )
        service = AttackService(config)
        report = service.run(
            build_schedule(load), chaos=make_session_killer(load)
        )
        acct = report.accounting
        assert service.injector is not None
        assert service.injector.total_fired >= 1
        assert report.unacknowledged_faults == {}
        assert acct.balances()
        # The storm produced typed non-success outcomes, not silence.
        assert acct.terminal_total == acct.offered
        assert acct.completed < acct.offered


class TestDrainResume:
    @staticmethod
    def _drain_at(cycles):
        async def chaos(service):
            await service.loop.sleep_cycles(cycles)
            service.request_drain()

        return chaos

    def test_drain_then_resume_equals_uninterrupted(self, tmp_path):
        config = _config()
        reference = AttackService(_config()).run(_schedule(sessions=30))
        ref_ids = set(reference.session_ids.get("completed", ()))
        assert len(ref_ids) == 30

        first = AttackService(config).run(
            _schedule(sessions=30),
            chaos=self._drain_at(4_000_000),
            checkpoint_dir=tmp_path,
        )
        assert first.status == "drained"
        assert first.exit_code == EXIT_INTERRUPTED
        assert first.accounting.balances()
        assert first.checkpoint_path == str(tmp_path / CHECKPOINT_NAME)
        assert Path(first.checkpoint_path).exists()
        assert first.accounting.completed < 30

        second = AttackService(_config()).run(
            (), resume_from=first.checkpoint_path, checkpoint_dir=tmp_path
        )
        assert second.status == "completed"
        assert second.accounting.balances()
        assert second.accounting.resumed == first.accounting.checkpointed

        first_done = set(first.session_ids.get("completed", ()))
        second_done = set(second.session_ids.get("completed", ()))
        # No session lost, none double-counted, same logical total.
        assert first_done.isdisjoint(second_done)
        assert first_done | second_done == ref_ids
        assert (
            first.accounting.completed + second.accounting.completed == 30
        )

    def test_resume_refuses_config_drift(self, tmp_path):
        first = AttackService(_config()).run(
            _schedule(sessions=10),
            chaos=self._drain_at(1_000_000),
            checkpoint_dir=tmp_path,
        )
        assert first.status == "drained"
        drifted = _config(lanes=3)
        with pytest.raises(ResumeMismatchError):
            AttackService(drifted).run((), resume_from=first.checkpoint_path)

    def test_drain_rejections_are_typed(self, tmp_path):
        # Drain early enough that most of the schedule is still
        # unoffered: the tail is checkpointed as pending, not rejected.
        first = AttackService(_config()).run(
            _schedule(sessions=30, mean_interarrival_cycles=500_000.0),
            chaos=self._drain_at(1_000_000),
            checkpoint_dir=tmp_path,
        )
        assert first.status == "drained"
        manifest = json.loads(Path(first.checkpoint_path).read_text())
        assert (
            first.accounting.terminal_total
            + len(manifest["pending"])
            == 30
        )


class TestOverload:
    def test_starved_service_opens_circuit_and_exits_overloaded(self):
        config = _config(
            lanes=1,
            queue_capacity=4,
            offer_retries=1,
            max_concurrent_sessions=2,
            target_latency_cycles=100_000,
            degraded_pressure=0.4,
            shed_pressure=0.8,
            circuit_pressure=1.2,
            controller_tick_cycles=200_000,
            completion_floor=0.9,
        )
        report = AttackService(config).run(
            _schedule(sessions=80, mean_interarrival_cycles=2_000.0)
        )
        acct = report.accounting
        assert report.status == "overloaded"
        assert report.exit_code == EXIT_OVERLOAD
        assert acct.balances()
        # The degradation ladder actually engaged…
        assert any(
            mode == "circuit-open" for _, mode in report.mode_transitions
        )
        # …and overload surfaced as typed outcomes: circuit rejections
        # or sheds, never lost sessions.
        assert (
            acct.rejected.get("circuit-open", 0)
            + acct.rejected.get("queue-full", 0)
            + acct.shed
            > 0
        )
        assert acct.terminal_total == acct.offered
