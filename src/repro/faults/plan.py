"""Fault plans: *what* to break, *where*, and *how often*.

A :class:`FaultPlan` is a seed plus an ordered tuple of
:class:`FaultSpec` entries.  Each spec targets one :class:`FaultSite`
(a named hook point inside the model) and fires either probabilistically
(an independent Bernoulli draw per opportunity) or periodically (every
``period_us`` of simulated time).  Plans are immutable values: the same
plan attached to two identical systems produces byte-identical fault
logs and identical experiment output, which is what makes chaos runs
regressable.

The plan layer deliberately knows nothing about the DSA model — it only
names sites.  The components that own each site consult the
:class:`~repro.faults.injector.FaultInjector` at the matching hook point
and apply the effect themselves (drop the submission, corrupt the
completion record, invalidate the TLB, ...).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace


class FaultSite(enum.Enum):
    """The hook points where faults can be injected.

    ==========================  =====================================================
    ``SUBMISSION_DROP``         an ``enqcmd``/``movdir64b`` portal write is lost:
                                software believes the descriptor was accepted but it
                                never reaches the queue (detected only by a missing
                                completion record)
    ``SUBMISSION_DELAY``        a portal write is stalled for ``magnitude_cycles``
                                before reaching the device (hypervisor intercept,
                                bus contention)
    ``COMPLETION_ERROR``        a descriptor that would have succeeded completes
                                with an error status instead (``kind`` selects
                                ``page_fault`` or ``invalid_flags``)
    ``ENGINE_STALL``            the executing engine loses ``magnitude_cycles``
                                (micro-architectural stall, thermal throttle)
    ``DEVTLB_INVALIDATE``       a spurious global DevTLB invalidation (as an ATS
                                invalidate-all would cause)
    ``IOTLB_INVALIDATE``        a spurious global IOTLB invalidation at the
                                translation agent
    ``WQ_DRAIN``                the targeted work queue is drained mid-flight:
                                undispatched descriptors abort (the idxd
                                WQ-disable path), then the queue keeps operating
    ``PRS_DROP``                a device page request goes unresolved even though
                                the OS handler could have served it
    ``PREEMPTION``              the idling actor is preempted for
                                ``magnitude_cycles`` and resumes late
    ``POOL_WORKER_CRASH``       the pool worker executing the trial is
                                SIGKILLed before the trial runs (chaos for the
                                supervised executor's respawn/requeue path)
    ``POOL_WORKER_STALL``       the pool worker hangs silently
                                before the trial (``magnitude_cycles`` µs·10⁶,
                                capped) until the parent's hang watchdog kills it
    ``POOL_RESULT_CORRUPT``     the worker sends the trial's result message as
                                bytes that are not a pickle, so the parent
                                must detect the unpicklable message and heal
    ``SERVICE_SESSION_STALL``   an attack session wedges for ``magnitude_cycles``
                                of device time mid-round (lost wakeup, hung
                                guest); the session's deadline budget must
                                detect it rather than wedging its lane
    ``SERVICE_ADMISSION_FLAP``  the admission controller spuriously refuses an
                                otherwise admissible session (control-plane
                                flakiness); surfaces as a typed
                                ``AdmissionRejected(reason="admission-flap")``
    ``SERVICE_DEVICE_REVOKE``   a device lane is revoked while held (hypervisor
                                reclaim); the fleet quarantines and rebuilds
                                the lane, the holding session retries elsewhere
    ==========================  =====================================================
    """

    SUBMISSION_DROP = "submission_drop"
    SUBMISSION_DELAY = "submission_delay"
    COMPLETION_ERROR = "completion_error"
    ENGINE_STALL = "engine_stall"
    DEVTLB_INVALIDATE = "devtlb_invalidate"
    IOTLB_INVALIDATE = "iotlb_invalidate"
    WQ_DRAIN = "wq_drain"
    PRS_DROP = "prs_drop"
    PREEMPTION = "preemption"
    POOL_WORKER_CRASH = "pool_worker_crash"
    POOL_WORKER_STALL = "pool_worker_stall"
    POOL_RESULT_CORRUPT = "pool_result_corrupt"
    SERVICE_SESSION_STALL = "service_session_stall"
    SERVICE_ADMISSION_FLAP = "service_admission_flap"
    SERVICE_DEVICE_REVOKE = "service_device_revoke"


#: ``kind`` values accepted by ``COMPLETION_ERROR`` specs.
COMPLETION_ERROR_KINDS = ("page_fault", "invalid_flags")


@dataclass(frozen=True)
class FaultSpec:
    """One fault source: a site, a trigger, and optional scoping filters.

    Exactly one trigger must be armed: ``probability`` (Bernoulli per
    opportunity) or ``period_us`` (fire whenever simulated time crosses
    the next period boundary).  ``start_us``/``stop_us`` bound the window
    of simulated time in which the spec is live.

    The scoping filters (``pasid``, ``wq_id``, ``engine_id``) restrict
    the spec to opportunities whose context matches; ``None`` matches
    everything.  ``magnitude_cycles`` parameterizes sites that consume a
    duration (delays, stalls, preemption bursts); ``kind`` selects the
    error flavor for ``COMPLETION_ERROR``.
    """

    site: FaultSite
    probability: float = 0.0
    period_us: float | None = None
    start_us: float = 0.0
    stop_us: float | None = None
    magnitude_cycles: int = 0
    kind: str = ""
    pasid: int | None = None
    wq_id: int | None = None
    engine_id: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.period_us is not None and self.period_us <= 0:
            raise ValueError(f"period_us must be positive, got {self.period_us}")
        if self.period_us is None and self.probability == 0.0:
            raise ValueError(
                f"{self.site.value}: arm a trigger (probability > 0 or period_us)"
            )
        if self.period_us is not None and self.probability > 0.0:
            raise ValueError(
                f"{self.site.value}: probability and period_us are mutually exclusive"
            )
        if self.start_us < 0:
            raise ValueError("start_us cannot be negative")
        if self.stop_us is not None and self.stop_us <= self.start_us:
            raise ValueError("stop_us must be after start_us")
        if self.magnitude_cycles < 0:
            raise ValueError("magnitude_cycles cannot be negative")
        if self.site is FaultSite.COMPLETION_ERROR:
            kind = self.kind or COMPLETION_ERROR_KINDS[0]
            if kind not in COMPLETION_ERROR_KINDS:
                raise ValueError(
                    f"completion-error kind must be one of {COMPLETION_ERROR_KINDS}, "
                    f"got {self.kind!r}"
                )
            object.__setattr__(self, "kind", kind)
        elif self.kind:
            raise ValueError(f"{self.site.value} takes no kind")

    @property
    def periodic(self) -> bool:
        """Whether this spec fires on a simulated-time period."""
        return self.period_us is not None


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the fault specs to run against one system.

    The plan is a pure value: build it once, attach it (via
    :meth:`build_injector` or ``CloudSystem(fault_plan=...)``) to as many
    identically-seeded systems as needed — every attachment replays the
    exact same fault sequence.
    """

    seed: int = 0
    specs: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def with_spec(self, spec: FaultSpec) -> "FaultPlan":
        """A new plan with *spec* appended."""
        return replace(self, specs=self.specs + (spec,))

    def with_site(self, site: FaultSite, **kwargs) -> "FaultPlan":
        """A new plan with ``FaultSpec(site, **kwargs)`` appended."""
        return self.with_spec(FaultSpec(site=site, **kwargs))

    def sites(self) -> tuple[FaultSite, ...]:
        """The distinct sites this plan can hit, in spec order."""
        seen: list[FaultSite] = []
        for spec in self.specs:
            if spec.site not in seen:
                seen.append(spec.site)
        return tuple(seen)

    def build_injector(self, max_log_events: int | None = 100_000):
        """Construct a fresh :class:`~repro.faults.injector.FaultInjector`."""
        from repro.faults.injector import FaultInjector

        return FaultInjector(self, max_log_events=max_log_events)

    def describe(self) -> str:
        """Human-readable one-spec-per-line summary."""
        lines = [f"FaultPlan(seed={self.seed}, specs={len(self.specs)})"]
        for index, spec in enumerate(self.specs):
            trigger = (
                f"every {spec.period_us} us"
                if spec.periodic
                else f"p={spec.probability}"
            )
            scope = ", ".join(
                f"{name}={value}"
                for name, value in (
                    ("pasid", spec.pasid),
                    ("wq", spec.wq_id),
                    ("engine", spec.engine_id),
                )
                if value is not None
            )
            lines.append(
                f"  [{index}] {spec.site.value} {trigger}"
                + (f" ({scope})" if scope else "")
            )
        return "\n".join(lines)
