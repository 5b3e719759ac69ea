"""The handled-or-detected matrix: no fault site is silently absorbed.

Every site in :mod:`repro.faults.sites` is injected alone against a
monitored workload.  The contract each cell must satisfy:

* the site actually fired, and
* the fault either surfaced as a handled pipeline outcome (a typed
  :class:`~repro.errors.ReproError`, an error-status completion record,
  or an acknowledged effect) or tripped a replayable
  :class:`~repro.errors.InvariantViolation` — never success with an
  unacknowledged fault on the ledger.

The same audit is what :func:`repro.experiments.runner.run_guarded_trials`
applies per trial, so the matrix doubles as a regression net: a new site
added without wiring :meth:`FaultInjector.acknowledge` at its effect
point fails here before it can silently rot a chaos figure.
"""

import functools

import pytest

from repro.dsa.descriptor import make_memcpy, make_noop
from repro.errors import (
    InvariantViolation,
    ReproError,
    UnhandledFaultError,
)
from repro.experiments.checkpoint import CheckpointJournal
from repro.experiments.runner import (
    ExperimentPlan,
    TrialSpec,
    WorkerContext,
    current_fault_injector,
    run_experiment,
    run_guarded_trials,
    worker_context,
)
from repro.faults import FaultPlan, FaultSite
from repro.faults.plan import FaultSpec
from repro.faults.sites import (
    DEVICE_SITES,
    POOL_SITES,
    SERVICE_SITES,
    TIMELINE_SITES,
)
from repro.hw.clock import TscClock
from repro.invariants import InvariantMonitor
from repro.virt.scheduler import Timeline

from tests.conftest import build_host

# Everything here is slow-marked (run via scripts/check.sh full) except
# the serial case of the absorbed-fault test, which runs in tier-1.


def _injector(site, **kwargs):
    kwargs.setdefault("probability", 1.0)
    return FaultPlan(seed=5).with_site(site, **kwargs).build_injector()


def _monitored_host(**kwargs):
    host = build_host(**kwargs)
    monitor = InvariantMonitor(mode="strict")
    monitor.attach_device(host.device)
    return host, monitor


def _run_device_site(site, **site_kwargs):
    """One monitored workload under *site*; returns (injector, handled)."""
    host, monitor = _monitored_host()
    injector = _injector(site, **site_kwargs)
    injector.attach_device(host.device)
    proc = host.new_process()
    src = proc.buffer(4096)
    dst = proc.buffer(4096)
    comp = proc.comp_record()
    handled = 0
    for _ in range(3):
        try:
            proc.portal.submit_wait(
                make_memcpy(proc.pasid, src, dst, 256, comp),
                timeout_cycles=500_000,
            )
        except ReproError:
            handled += 1
    monitor.check_all()
    return injector, handled


DEVICE_MATRIX = {
    FaultSite.SUBMISSION_DELAY: {"magnitude_cycles": 10_000},
    FaultSite.SUBMISSION_DROP: {},
    FaultSite.COMPLETION_ERROR: {},
    FaultSite.ENGINE_STALL: {"magnitude_cycles": 20_000},
    FaultSite.DEVTLB_INVALIDATE: {},
    FaultSite.IOTLB_INVALIDATE: {},
    FaultSite.WQ_DRAIN: {},
    FaultSite.PRS_DROP: {},
}


@pytest.mark.slow
class TestMatrixCoversEverySite:
    def test_registry_is_fully_enumerated(self):
        """A new FaultSite must join this matrix to pass.

        Pool sites live in their own matrix
        (``tests/chaos/test_pool_fault_matrix.py``) because they fire
        inside pool workers, not inside device trials; service sites
        fire inside the session service's control plane and are covered
        by :class:`TestServiceFaultMatrix` below.
        """
        assert set(DEVICE_MATRIX) == set(DEVICE_SITES)
        assert set(SERVICE_MATRIX) == set(SERVICE_SITES)
        assert (
            set(DEVICE_SITES)
            | set(TIMELINE_SITES)
            | set(POOL_SITES)
            | set(SERVICE_SITES)
            == set(FaultSite)
        )

    @pytest.mark.parametrize(
        "site", sorted(DEVICE_MATRIX, key=lambda s: s.value)
    )
    def test_device_site_is_handled_or_detected(self, site):
        injector, handled = _run_device_site(site, **DEVICE_MATRIX[site])
        if site is FaultSite.PRS_DROP:
            # Descriptors never fault on pre-mapped buffers, so the PRS
            # hook has no opportunity here; its cell runs below.
            pytest.skip("PRS_DROP needs a faulting translation; see below")
        assert injector.total_fired >= 1, f"{site.value} never fired"
        gaps = injector.unacknowledged()
        assert not gaps or handled > 0, (
            f"{site.value} was absorbed silently: fired {injector.total_fired},"
            f" unacknowledged {gaps}, no handled outcome"
        )

    def test_prs_drop_surfaces_as_handled_page_fault(self):
        """PRS_DROP cell: a faulting walk under drop yields an error
        record (handled outcome) and an acknowledged ledger."""
        from repro.dsa.completion import CompletionStatus

        host, monitor = _monitored_host()
        injector = _injector(FaultSite.PRS_DROP)
        injector.attach_device(host.device)
        # The OS-side handler would resolve the fault; the injected drop
        # loses the page request first.
        host.device.prs.set_handler(lambda pasid, va, write: True)
        proc = host.new_process()
        src = proc.buffer(4096)
        dst = proc.buffer(4096)
        comp = proc.comp_record()
        proc.space.unmap(src)  # force a faulting walk on the source
        ticket = proc.portal.submit_wait(
            make_memcpy(proc.pasid, src, dst, 256, comp),
            timeout_cycles=500_000,
        )
        assert ticket.record.status is CompletionStatus.PAGE_FAULT
        assert injector.total_fired >= 1
        assert not injector.unacknowledged()
        monitor.check_all()

    def test_preemption_is_acknowledged(self):
        clock = TscClock()
        timeline = Timeline(clock)
        injector = _injector(FaultSite.PREEMPTION, magnitude_cycles=5_000)
        injector.attach_timeline(timeline)
        timeline.idle_until(50_000)
        assert injector.total_fired >= 1
        assert not injector.unacknowledged()
        assert timeline.preemptions >= 1


def _audited(trials, injector):
    """``(result, error)`` per trial, guarded with *injector* installed
    as the current fault injector."""
    outcomes = []
    with worker_context(WorkerContext(fault_injector=injector)):
        run_guarded_trials(
            trials,
            on_trial_end=lambda index, result, error, _: outcomes.append(
                (result, error)
            ),
        )
    return outcomes


@pytest.mark.slow
class TestGuardAudit:
    def test_unacknowledged_fault_fails_the_trial(self):
        """A fired-but-never-acknowledged fault converts a green trial
        into a structured UnhandledFaultError — never a silent pass."""
        injector = _injector(FaultSite.ENGINE_STALL)

        def trial():
            injector.fire(FaultSite.ENGINE_STALL, timestamp=0, engine_id=0)
            return "looks fine"

        [(result, error)] = _audited([trial], injector)
        assert result is None
        assert isinstance(error, UnhandledFaultError)
        assert error.unacknowledged == {FaultSite.ENGINE_STALL.value: 1}
        assert "absorbed" in str(error)

    def test_acknowledged_fault_keeps_the_trial_green(self):
        injector = _injector(FaultSite.ENGINE_STALL)

        def trial():
            event = injector.fire(
                FaultSite.ENGINE_STALL, timestamp=0, engine_id=0
            )
            injector.acknowledge(event, action="engine-stalled")
            return "ok"

        assert _audited([trial], injector) == [("ok", None)]

    def test_audit_windows_are_per_trial(self):
        """A static injector's pre-trial history must not leak into the
        next trial's audit window."""
        injector = _injector(FaultSite.ENGINE_STALL)
        event = injector.fire(FaultSite.ENGINE_STALL, timestamp=0, engine_id=0)
        assert event is not None  # unacknowledged history before any trial

        assert _audited([lambda: "ok"], injector) == [("ok", None)]

    def test_invariant_violation_always_propagates(self):
        violation = InvariantViolation(
            message="synthetic", invariant="wq-credits", seed=3
        )

        def trial():
            raise violation

        with pytest.raises(InvariantViolation) as info:
            run_guarded_trials([trial], catch=(ReproError,))
        assert info.value is violation

    def test_violation_from_monitored_trial_is_replayable(self):
        """End to end: a trial that corrupts monitored state surfaces as
        a replayable violation through the guard."""
        host, monitor = _monitored_host()
        monitor.seed = 17
        monitor.repro_hint = "PYTHONPATH=src python -m repro.invariants.soak --seed 17"
        proc = host.new_process()
        comp = proc.comp_record()

        def trial():
            proc.portal.submit_wait(make_noop(proc.pasid, comp))
            host.device.queue_space.get(0)._outstanding += 1  # the "bug"
            proc.portal.submit_wait(make_noop(proc.pasid, comp))

        with pytest.raises(InvariantViolation) as info:
            run_guarded_trials([trial])
        violation = info.value
        assert violation.invariant == "wq-credits"
        assert violation.seed == 17
        assert violation.events, "event window must be populated"
        assert violation.snapshot.get("wq0.occupancy") is not None
        assert "--seed 17" in violation.repro


def _service_report(site, probability=1.0, sessions=10, **spec_kwargs):
    """One small service run with *site* armed; returns (service, report)."""
    from repro.service.app import AttackService
    from repro.service.config import ServiceConfig
    from repro.service.loadgen import LoadConfig, build_schedule

    config = ServiceConfig(
        seed=11,
        lanes=2,
        fault_plan=FaultPlan(
            seed=11,
            specs=(
                FaultSpec(
                    site=site, probability=probability, **spec_kwargs
                ),
            ),
        ),
    )
    service = AttackService(config)
    report = service.run(
        build_schedule(LoadConfig(sessions=sessions, seed=3))
    )
    return service, report


#: Service-site cells: per-site arming plus the handled-outcome probe.
#: Each probe returns truthy evidence that the fault surfaced as a
#: *typed, accounted* outcome — never a silent absorption.
SERVICE_MATRIX = {
    # Every round boundary stalls; the stall is acknowledged into the
    # deadline budget and sessions still terminate with balanced books.
    FaultSite.SERVICE_SESSION_STALL: {
        "kwargs": {"probability": 0.5, "magnitude_cycles": 200_000},
        "handled": lambda r: r.accounting.terminal_total
        == r.accounting.offered,
    },
    # Every admission attempt flaps: all sessions exit through the
    # typed ``admission-flap`` rejection lane.
    FaultSite.SERVICE_ADMISSION_FLAP: {
        "kwargs": {"probability": 1.0},
        "handled": lambda r: r.accounting.rejected.get("admission-flap", 0)
        > 0,
    },
    # Every lane hand-out revokes: lanes quarantine and rebuild, and
    # sessions exhaust their retry budget into typed failures.
    FaultSite.SERVICE_DEVICE_REVOKE: {
        "kwargs": {"probability": 1.0},
        "handled": lambda r: r.lane_stats["lanes_rebuilt"] > 0
        and r.accounting.failed_total > 0,
    },
}


@pytest.mark.slow
class TestServiceFaultMatrix:
    """Handled-or-detected rows for the session service's control-plane
    sites: the site fires on the service injector, the effect surfaces
    as a typed accounted outcome, and the final ledger carries no
    unacknowledged events (the same audit ``_finalize`` folds into
    every service report)."""

    @pytest.mark.parametrize(
        "site", sorted(SERVICE_MATRIX, key=lambda s: s.value)
    )
    def test_service_site_is_handled_or_detected(self, site):
        cell = SERVICE_MATRIX[site]
        service, report = _service_report(site, **cell["kwargs"])
        assert service.injector is not None
        assert service.injector.total_fired >= 1, f"{site.value} never fired"
        assert report.unacknowledged_faults == {}, (
            f"{site.value} left unacknowledged events on the ledger"
        )
        assert cell["handled"](report), (
            f"{site.value} fired but produced no typed handled outcome"
        )
        assert report.accounting.balances()


@pytest.mark.slow
class TestChaosSoakComposition:
    def test_faulted_system_under_strict_monitor_stays_accountable(self):
        """A multi-site chaos storm with the monitor attached: every
        fired fault is either handled or acknowledged, and the final
        audit is clean — chaos never corrupts conserved state."""
        host, monitor = _monitored_host()
        plan = (
            FaultPlan(seed=23)
            .with_site(FaultSite.SUBMISSION_DELAY, probability=0.3,
                       magnitude_cycles=2_000)
            .with_site(FaultSite.COMPLETION_ERROR, probability=0.2)
            .with_site(FaultSite.ENGINE_STALL, probability=0.2,
                       magnitude_cycles=5_000)
            .with_site(FaultSite.DEVTLB_INVALIDATE, probability=0.2)
            .with_site(FaultSite.WQ_DRAIN, probability=0.05)
        )
        injector = plan.build_injector()
        injector.attach_device(host.device)
        proc = host.new_process()
        src = proc.buffer(4096)
        dst = proc.buffer(4096)
        comp = proc.comp_record()
        handled = 0
        for i in range(60):
            try:
                proc.portal.submit_wait(
                    make_memcpy(proc.pasid, src, dst, 256, comp),
                    timeout_cycles=500_000,
                )
            except ReproError:
                handled += 1
        assert injector.total_fired > 0
        assert not injector.unacknowledged()
        monitor.check_all()

# ----------------------------------------------------------------------
# The matrix under the worker pool
# ----------------------------------------------------------------------
# These trial functions are module-level so pool workers can rebuild the
# plan (the factory pickles by reference).  Inside a worker the injector
# comes from the per-process ``current_fault_injector()``, built from the
# plan's ``fault_plan`` — the audit therefore stays inside the shard that
# fired the fault.


def _parallel_device_trial() -> dict:
    """The device-site workload of ``_run_device_site``, shard-resident."""
    injector = current_fault_injector()
    assert injector is not None, "must run on the worker pool"
    host, monitor = _monitored_host()
    injector.attach_device(host.device)
    proc = host.new_process()
    src = proc.buffer(4096)
    dst = proc.buffer(4096)
    comp = proc.comp_record()
    handled = 0
    last_error: ReproError | None = None
    for _ in range(3):
        try:
            proc.portal.submit_wait(
                make_memcpy(proc.pasid, src, dst, 256, comp),
                timeout_cycles=500_000,
            )
        except ReproError as exc:
            handled += 1
            last_error = exc
    monitor.check_all()
    gaps = injector.unacknowledged()
    if gaps and last_error is not None:
        # The fault surfaced on the error path: re-raise it so the merged
        # journal records the *typed* handled outcome (the serial matrix's
        # "no gaps or handled > 0" arm).
        raise last_error
    return {"fired": injector.total_fired, "handled": handled, "gaps": gaps}


def _parallel_prs_trial() -> dict:
    """PRS_DROP cell: a faulting walk under drop, shard-resident."""
    from repro.dsa.completion import CompletionStatus

    injector = current_fault_injector()
    assert injector is not None, "must run on the worker pool"
    host, monitor = _monitored_host()
    injector.attach_device(host.device)
    host.device.prs.set_handler(lambda pasid, va, write: True)
    proc = host.new_process()
    src = proc.buffer(4096)
    dst = proc.buffer(4096)
    comp = proc.comp_record()
    proc.space.unmap(src)
    ticket = proc.portal.submit_wait(
        make_memcpy(proc.pasid, src, dst, 256, comp),
        timeout_cycles=500_000,
    )
    monitor.check_all()
    handled = 1 if ticket.record.status is CompletionStatus.PAGE_FAULT else 0
    return {
        "fired": injector.total_fired,
        "handled": handled,
        "gaps": injector.unacknowledged(),
    }


def _parallel_preemption_trial() -> dict:
    """PREEMPTION cell: idle a timeline under the shard's injector."""
    injector = current_fault_injector()
    assert injector is not None, "must run on the worker pool"
    clock = TscClock()
    timeline = Timeline(clock)
    injector.attach_timeline(timeline)
    timeline.idle_until(50_000)
    return {
        "fired": injector.total_fired,
        "handled": timeline.preemptions,
        "gaps": injector.unacknowledged(),
    }


_PARALLEL_SITE_KWARGS = {
    **DEVICE_MATRIX,
    FaultSite.PREEMPTION: {"magnitude_cycles": 5_000},
}


def _passthrough_finalize(results: dict) -> dict:
    return dict(results)


def _parallel_matrix_plan(site_value: str) -> ExperimentPlan:
    """A two-trial plan (one per shard at ``workers=2``) injecting one
    site at probability 1.0 via the plan's own fault plan."""
    site = FaultSite(site_value)
    if site is FaultSite.PRS_DROP:
        fn = _parallel_prs_trial
    elif site is FaultSite.PREEMPTION:
        fn = _parallel_preemption_trial
    else:
        fn = _parallel_device_trial
    return ExperimentPlan(
        name=f"chaos-parallel-{site.value}",
        seed=5,
        config={"site": site.value, "workers": 2},
        trials=(
            TrialSpec(key=f"{site.value}/shard/0", fn=fn),
            TrialSpec(key=f"{site.value}/shard/1", fn=fn),
        ),
        finalize=_passthrough_finalize,
        min_successes=0,
        fault_plan=FaultPlan(seed=5).with_site(
            site, probability=1.0, **_PARALLEL_SITE_KWARGS.get(site, {})
        ),
    )


def _absorbing_trial() -> str:
    """Fires the shard injector's stall and never acknowledges it."""
    injector = current_fault_injector()
    injector.fire(FaultSite.ENGINE_STALL, timestamp=0, engine_id=0)
    return "looks fine"


def _absorbing_plan() -> ExperimentPlan:
    """Two absorbing trials: one per shard at ``workers=2`` (a single
    pending trial would run inline in the parent, not on a worker)."""
    return ExperimentPlan(
        name="chaos-parallel-absorbed",
        seed=5,
        config={"case": "absorbed"},
        trials=(
            TrialSpec(key="absorbed/0", fn=_absorbing_trial),
            TrialSpec(key="absorbed/1", fn=_absorbing_trial),
        ),
        finalize=_passthrough_finalize,
        min_successes=0,
        fault_plan=FaultPlan(seed=5).with_site(
            FaultSite.ENGINE_STALL, probability=1.0
        ),
    )


class TestParallelFaultMatrix:
    """The handled-or-detected contract holds across the process
    boundary: every site fired inside a 2-worker pooled run either
    surfaces as a typed journaled outcome or fails its trial — never a
    green trial over an unacknowledged ledger."""

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "site",
        sorted(
            set(FaultSite) - set(POOL_SITES) - set(SERVICE_SITES),
            key=lambda s: s.value,
        ),
    )
    def test_site_is_handled_or_detected_in_sharded_run(self, site, tmp_path):
        # Pool sites fire inside pool workers, not inside trials; their
        # handled-or-detected coverage is test_pool_fault_matrix.py.
        # Service sites fire inside the session service's control plane;
        # their coverage is TestServiceFaultMatrix above.
        run_experiment(
            _parallel_matrix_plan(site.value),
            run_dir=tmp_path,
            workers=2,
            plan_source=functools.partial(_parallel_matrix_plan, site.value),
        )
        journal = CheckpointJournal.load(tmp_path)
        entries = list(journal.entries())
        assert len(entries) == 2, "both shards must journal their trial"
        for entry in entries:
            if entry.ok:
                payload = journal.load_payload(entry.key)
                assert payload["fired"] >= 1, (
                    f"{site.value} never fired in {entry.key}"
                )
                assert not payload["gaps"], (
                    f"{site.value} passed {entry.key} with an "
                    f"unacknowledged ledger {payload['gaps']}"
                )
            else:
                # This workload cannot fail without injection, so a typed
                # failure *is* evidence the site fired and was detected.
                assert entry.error_type, f"untyped failure in {entry.key}"

    @pytest.mark.parametrize(
        "workers",
        [1, pytest.param(2, marks=pytest.mark.slow)],
    )
    def test_absorbed_worker_fault_fails_trial_in_merged_journal(
        self, workers, tmp_path
    ):
        """The serial loop and a pool worker both install the plan's
        injector and audit it after the trial."""
        outcome = run_experiment(
            _absorbing_plan(),
            run_dir=tmp_path,
            workers=workers,
            plan_source=_absorbing_plan,
        )
        assert outcome.failed == 2
        if workers > 1:
            assert outcome.pool["mode"] == "pool"
        journal = CheckpointJournal.load(tmp_path)
        for key in ("absorbed/0", "absorbed/1"):
            entry = journal.get(key)
            assert entry is not None and not entry.ok
            assert entry.error_type == "UnhandledFaultError"
            assert "absorbed" in (entry.error or "")
