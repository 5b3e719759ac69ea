"""The four benchmark workloads.

Each workload turns a seed into its inputs (a trial plan, or a service
config plus an open-loop arrival schedule) and runs one *unit* of work
on them, returning what the measurement needs.  The program only sees
the generated inputs; the seed never reaches it any other way.

Why each workload exists (``README.md`` has the layer table):

``covert``
    The Fig. 9 sweep, both primitives, every window, one run each:
    almost pure device replay through SWQ congestion, ZF retries and
    DevTLB probing, with no ML, in short trials that expose the runner's
    per-trial overhead.
``llm``
    Fig. 13 at reduced scale: long DevTLB-sampler traces against a DTO
    victim on the timeline (many ``advance_to`` calls per descriptor),
    then BiLSTM training, the only workload where ``ml`` works.
``service``
    The committed service bench's fleet and load (32 lanes, 32 tenants,
    20k-cycle mean inter-arrival), 1,000 sessions: many short sessions
    over 32 cold, once-calibrated CloudSystems; admission admits all.
``service-overload``
    The same fleet at a 4k-cycle mean inter-arrival, 5,000 sessions:
    the controller ladder, shedding and the bounded queue all fire, so
    a change that speeds up the happy path by slowing overload handling
    shows here.  Fewer sessions never build the backlog that sheds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Any, Callable

from spans import SpanTracer, traced

#: Units are kept short (about 1-6 s on a 2-CPU host) so that a run
#: holds several of them and their median is a steady statistic.
SERVICE_SESSIONS = 1_000
OVERLOAD_SESSIONS = 5_000
LLM_TRACES_PER_MODEL = 2
LLM_SLOTS = 20
LLM_EPOCHS = 40


@dataclass
class UnitResult:
    """One unit of work, as the measurement sees it."""

    wall_s: float
    #: Trials run, or sessions offered.
    attempted: int
    completed: int
    #: Operations that failed: failed trials, or failed plus
    #: quarantined sessions.
    failed: int
    #: Attempted but not completed, for any reason (rejected and shed
    #: sessions included).
    unserved: int
    #: JSON-able summary of the result, hashed into ``sim_digest``.
    fields: Any
    #: Simulated results that a speed-only change must not move.
    fidelity: dict[str, float]
    #: Service counters (all zero on the experiment workloads).
    service: dict[str, float] = field(default_factory=dict)
    breaches: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Modules a user of this workload imports first.
    entry_modules: tuple[str, ...]
    #: ``(seed, tiny) -> inputs``; *tiny* shrinks the unit for self-tests.
    prepare: Callable[[int, bool], Any]
    #: ``(inputs, tracer or None) -> UnitResult``.
    run: Callable[[Any, SpanTracer | None], UnitResult]


# ----------------------------------------------------------------------
# Experiment workloads (through the supervised runner)
# ----------------------------------------------------------------------
def _run_plan(plan: Any, tracer: SpanTracer | None) -> tuple[Any, float]:
    from repro.experiments.runner import TrialSpec, run_experiment

    execute = run_experiment
    if tracer is not None:
        plan = dataclasses.replace(
            plan,
            trials=tuple(
                TrialSpec(t.key, traced(t.fn, "experiments.trial", tracer))
                for t in plan.trials
            ),
            finalize=traced(plan.finalize, "experiments.finalize", tracer),
        )
        execute = traced(run_experiment, "experiments.run", tracer)
    start = perf_counter()
    outcome = execute(plan)
    return outcome, perf_counter() - start


def _experiment_result(
    plan: Any, outcome: Any, wall_s: float, fields: Any, fidelity: dict
) -> UnitResult:
    breaches = []
    if outcome.status != "completed":
        breaches.append(f"{plan.name} ended {outcome.status}: {outcome.error}")
    if outcome.completed != len(plan.trials):
        breaches.append(
            f"{plan.name}: {outcome.completed} of {len(plan.trials)} trials completed"
        )
    return UnitResult(
        wall_s=wall_s,
        attempted=len(plan.trials),
        completed=outcome.completed,
        failed=outcome.failed,
        unserved=len(plan.trials) - outcome.completed,
        fields=fields,
        fidelity=fidelity,
        breaches=breaches,
    )


def _prepare_covert(seed: int, tiny: bool) -> Any:
    from repro.experiments import fig09_covert

    if tiny:
        return fig09_covert.trial_plan(
            payload_bits=32, runs=1, seed=seed,
            devtlb_windows=(60.0,), swq_windows=(180.0,),
        )
    return fig09_covert.trial_plan(runs=1, seed=seed)


def _run_covert(plan: Any, tracer: SpanTracer | None) -> UnitResult:
    outcome, wall_s = _run_plan(plan, tracer)
    result = outcome.result
    fields: Any = None
    fidelity = {"devtlb_true_kbps": 0.0, "devtlb_ber_pct": 0.0}
    if result is not None:
        fields = [dataclasses.astuple(p) for p in result.points]
        best = result.best("devtlb")
        fidelity = {
            "devtlb_true_kbps": best.true_bps / 1e3,
            "devtlb_ber_pct": best.error_rate * 100,
        }
    return _experiment_result(plan, outcome, wall_s, fields, fidelity)


def _prepare_llm(seed: int, tiny: bool) -> Any:
    from repro.experiments import fig13_llm
    from repro.workloads.llm import LLM_ZOO

    if tiny:
        return fig13_llm.trial_plan(
            traces_per_model=3, models=LLM_ZOO[:2], seed=seed, hidden=4,
            epochs=1, settings=fig13_llm.LlmSamplerSettings(slots=2),
        )
    return fig13_llm.trial_plan(
        traces_per_model=LLM_TRACES_PER_MODEL,
        seed=seed,
        epochs=LLM_EPOCHS,
        settings=fig13_llm.LlmSamplerSettings(slots=LLM_SLOTS),
    )


def _run_llm(plan: Any, tracer: SpanTracer | None) -> UnitResult:
    outcome, wall_s = _run_plan(plan, tracer)
    result = outcome.result
    fields: Any = None
    fidelity = {"llm_accuracy_pct": 0.0}
    if result is not None:
        fields = {
            "bilstm_accuracy": result.bilstm_accuracy,
            "baseline_accuracy": result.baseline_accuracy,
            "matrix": result.matrix.tolist(),
            "traces": {k: v.tolist() for k, v in result.example_traces.items()},
        }
        fidelity = {"llm_accuracy_pct": result.bilstm_accuracy * 100}
    return _experiment_result(plan, outcome, wall_s, fields, fidelity)


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
def _prepare_service(
    sessions: int, interarrival: float, tiny_sessions: int, seed: int, tiny: bool
) -> Any:
    from repro.service.config import ServiceConfig, TenantPolicy
    from repro.service.loadgen import LoadConfig, build_schedule

    config = ServiceConfig(
        seed=seed,
        lanes=4 if tiny else 32,
        tenant_policy=TenantPolicy(device_cycle_quota=10**11, max_in_flight=512),
    )
    load = LoadConfig(
        sessions=tiny_sessions if tiny else sessions,
        tenants=32,
        seed=seed,
        mean_interarrival_cycles=interarrival,
    )
    return config, build_schedule(load)


def _run_service(
    sheds: bool, inputs: Any, tracer: SpanTracer | None
) -> UnitResult:
    """One service run; unless *sheds*, every offered session must complete."""
    from repro.service.app import AttackService

    config, schedule = inputs
    start = perf_counter()
    report = AttackService(config).run(schedule)
    wall_s = perf_counter() - start
    acct = report.accounting
    breaches = []
    if not acct.balances():
        breaches.append(f"accounting does not balance: {acct.to_json()}")
    if report.unacknowledged_faults:
        breaches.append(f"unacknowledged faults: {report.unacknowledged_faults}")
    if report.status == "drained":
        breaches.append("service drained")
    offered = acct.offered
    failed = acct.failed_total + acct.quarantined
    if failed:
        breaches.append(f"{failed} sessions failed or were quarantined")
    if not sheds and acct.completed != offered:
        breaches.append(f"{acct.completed} of {offered} sessions completed")
    lanes = report.lane_stats
    return UnitResult(
        wall_s=wall_s,
        attempted=offered,
        completed=acct.completed,
        failed=failed,
        unserved=acct.rejected_total + acct.shed + failed,
        fields=report.to_json(),
        fidelity={"session_p99_mcycles": report.latency_cycles["p99"] / 1e6},
        service={
            "service.reject_frac": acct.rejected_total / offered if offered else 0.0,
            "service.shed_frac": acct.shed / offered if offered else 0.0,
            "service.queue_high_water": lanes["queue_high_water"],
            "service.backpressure_events": acct.backpressure_events,
            "service.mode_transitions": len(report.mode_transitions),
            "service.rounds_served": lanes["rounds_served"],
            "service.recalibrations": lanes["recalibrations"],
        },
        breaches=breaches,
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "covert",
            "Fig. 9 covert sweep: device replay (SWQ congestion, ZF retries, "
            "DevTLB probes) with no ML, in many short trials",
            ("repro.experiments.runner", "repro.experiments.fig09_covert"),
            _prepare_covert,
            _run_covert,
        ),
        Workload(
            "llm",
            "Fig. 13 at reduced scale: long DevTLB-sampler traces on the timeline, "
            "then BiLSTM training, the only workload where ml works",
            ("repro.experiments.runner", "repro.experiments.fig13_llm"),
            _prepare_llm,
            _run_llm,
        ),
        Workload(
            "service",
            "session service at 20k-cycle mean inter-arrival over 32 cold lanes; "
            "admission admits everything",
            ("repro.service.app", "repro.service.loadgen"),
            partial(_prepare_service, SERVICE_SESSIONS, 20_000.0, 40),
            partial(_run_service, False),
        ),
        Workload(
            "service-overload",
            "the same fleet at 4k-cycle mean inter-arrival: the controller ladder, "
            "shedding and the bounded queue all fire",
            ("repro.service.app", "repro.service.loadgen"),
            partial(_prepare_service, OVERLOAD_SESSIONS, 4_000.0, 400),
            partial(_run_service, True),
        ),
    )
}
