"""Service configuration: one frozen, hashable description of a run.

Everything the always-on service does is a pure function of
``(ServiceConfig, schedule)``; the config therefore serializes to
canonical JSON and hashes via the same
:func:`repro.experiments.checkpoint.config_hash` machinery the batch
runner uses — a drain checkpoint records the hash, and resume refuses a
mismatched config exactly like ``--resume`` does.

Thresholds are expressed in device cycles (:data:`~repro.hw.units
.DEFAULT_TSC_HZ` ticks), never host seconds: the service's only clock
is the device-time loop.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

from repro.core.calibration import CalibrationPolicy
from repro.errors import ConfigurationError
from repro.experiments.checkpoint import config_hash
from repro.faults.plan import FaultPlan


@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant isolation budget.

    ``device_cycle_quota`` caps the total device time a tenant's
    sessions may consume across the run; ``max_in_flight`` caps its
    concurrently admitted sessions.  Both are enforced at admission and
    audited (non-negative, cap respected) by the
    ``ServiceStateChecker`` fairness invariant.
    """

    device_cycle_quota: int = 2_000_000_000
    max_in_flight: int = 256

    def __post_init__(self) -> None:
        if self.device_cycle_quota <= 0 or self.max_in_flight <= 0:
            raise ConfigurationError(
                "tenant quota and in-flight cap must be positive"
            )


@dataclass(frozen=True)
class ServiceConfig:
    """The knobs of one service run (see ``docs/service.md``)."""

    seed: int = 2026
    #: Device fleet: lanes are independent ``CloudSystem`` instances on
    #: the E1 topology, each calibrated once at startup; sessions share
    #: the lane threshold instead of paying a per-session calibration.
    lanes: int = 4
    lane_calibration_samples: int = 40
    #: Token-bucket admission: sustained rate in sessions per million
    #: device cycles, with a burst allowance.
    admission_rate_per_mcycle: float = 400.0
    admission_burst: int = 512
    #: Bounded admission queue (backpressure boundary) and its bounded
    #: retry budget before an offer is finally rejected ``queue-full``.
    queue_capacity: int = 1024
    offer_retries: int = 3
    offer_backoff_cycles: int = 20_000
    #: Dispatcher concurrency cap: sessions actually running (holding
    #: or queuing for lanes) at once.
    max_concurrent_sessions: int = 2048
    #: Per-session retry budget; ``retry_policy.max_attempts`` bounds
    #: lane retries (revocation, transient attack errors) and the backoff
    #: between attempts grows by ``retry_policy.sample_growth``.  A
    #: session's deadline is ``SessionSpec.deadline_cycles``, set from
    #: ``LoadConfig``.
    retry_policy: CalibrationPolicy = field(default_factory=CalibrationPolicy)
    #: Per-tenant isolation (one policy for every tenant).
    tenant_policy: TenantPolicy = field(default_factory=TenantPolicy)
    #: Overload controller: EWMA of completed-session latency (cycles),
    #: blended with queue occupancy, against enter/exit thresholds.
    ewma_alpha: float = 0.2
    controller_tick_cycles: int = 500_000
    degraded_pressure: float = 1.0
    shed_pressure: float = 2.0
    circuit_pressure: float = 4.0
    #: Hysteresis: pressure must fall below ``exit_ratio`` × the entry
    #: threshold (and dwell a tick) before the controller steps down.
    exit_ratio: float = 0.7
    #: Latency the pressure score treats as 1.0 (the "expected" session).
    target_latency_cycles: int = 10_000_000
    #: Cadence degradation multiplier applied between probe rounds while
    #: the controller is in ``degraded`` (or worse).
    degraded_cadence_multiplier: int = 4
    inter_round_gap_cycles: int = 50_000
    #: Completion floor for the overload exit gate: finishing with the
    #: circuit having opened *and* ``completed/offered`` below this
    #: floor maps to ``EXIT_OVERLOAD``.
    completion_floor: float = 0.5
    #: Chaos plan evaluated by the service's control-plane injector
    #: (``SERVICE_SITES``) and by each lane's device injector.
    fault_plan: FaultPlan | None = None
    #: Record per-exit-path session ids in the report (tests/small runs
    #: only — the 10⁵ bench keeps this off).
    collect_session_ids: bool = False

    def __post_init__(self) -> None:
        if self.lanes < 1:
            raise ConfigurationError("a service needs at least one lane")
        if self.admission_rate_per_mcycle <= 0 or self.admission_burst < 1:
            raise ConfigurationError("admission bucket must be positive")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ConfigurationError("ewma_alpha must be in (0, 1]")
        if not (
            0
            < self.degraded_pressure
            < self.shed_pressure
            < self.circuit_pressure
        ):
            raise ConfigurationError(
                "pressure thresholds must be ordered"
                " degraded < shed < circuit"
            )
        if not 0.0 <= self.completion_floor <= 1.0:
            raise ConfigurationError("completion_floor must be in [0, 1]")

    def to_json(self) -> dict[str, Any]:
        """Canonical JSON form (the input to :func:`config_hash`)."""
        raw = {
            key: value
            for key, value in vars(self).items()
            # collect_session_ids is pure observability: it cannot
            # change a run's behavior, so it must not bind the
            # drain-checkpoint hash.
            if key
            not in (
                "fault_plan",
                "retry_policy",
                "tenant_policy",
                "collect_session_ids",
            )
        }
        raw["retry_policy"] = asdict(self.retry_policy)
        raw["tenant_policy"] = asdict(self.tenant_policy)
        raw["fault_plan"] = (
            None
            if self.fault_plan is None
            else {
                "seed": self.fault_plan.seed,
                "specs": [
                    {
                        "site": spec.site.value,
                        "probability": spec.probability,
                        "period_us": spec.period_us,
                        "start_us": spec.start_us,
                        "stop_us": spec.stop_us,
                        "magnitude_cycles": spec.magnitude_cycles,
                        "kind": spec.kind,
                        "pasid": spec.pasid,
                        "wq_id": spec.wq_id,
                        "engine_id": spec.engine_id,
                    }
                    for spec in self.fault_plan.specs
                ],
            }
        )
        return raw

    def digest(self) -> str:
        """Stable hash binding drain checkpoints to this config."""
        return config_hash(self.to_json())
