"""Exception hierarchy shared by every subsystem of the reproduction.

Each subpackage defines its own specific errors derived from
:class:`ReproError` so callers can either catch narrowly (e.g.
``TranslationFault``) or broadly (``ReproError``).

Errors that correspond to transient hardware conditions
(:class:`QueueFullError`, :class:`TranslationFault`,
:class:`CompletionTimeoutError`) carry structured context — the queue,
occupancy, PASID, or address involved — so resilient callers and the
chaos suite can assert on *which* resource failed rather than parsing
message strings.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError):
    """A component was configured with inconsistent or invalid parameters."""


class PermissionDeniedError(ReproError):
    """An unprivileged actor attempted a root-only operation.

    The paper's threat model (Section V-A) assumes an *unprivileged*
    adversary: configuring engines/queues and reading Perfmon require root,
    while submitting descriptors and reading ``wq_size`` do not.  This error
    is how the model enforces that boundary.
    """


class TranslationFault(ReproError):
    """An address could not be translated by a page table or the IOMMU."""

    def __init__(self, address: int, message: str = "", pasid: int | None = None) -> None:
        detail = message or f"no translation for address {address:#x}"
        super().__init__(detail)
        self.address = address
        self.pasid = pasid


class OutOfMemoryError(ReproError):
    """The physical frame allocator ran out of frames."""


class InvalidDescriptorError(ReproError):
    """A DSA descriptor failed validation at submission or decode time."""


class QueueConfigurationError(ConfigurationError):
    """Work-queue configuration registers are inconsistent."""


class QueueFullError(ReproError):
    """A submission was refused because the work queue is full.

    For ``enqcmd`` this surfaces as ``EFLAGS.ZF = 1`` rather than an
    exception; the exception form exists for the convenience submit path
    and for ``movdir64b`` to a full dedicated queue (whose behavior real
    hardware leaves undefined).

    ``wq_id``/``occupancy``/``capacity`` carry the refusing queue's state
    at submission time (``None`` when the raiser cannot know it).
    """

    def __init__(
        self,
        message: str = "",
        wq_id: int | None = None,
        occupancy: int | None = None,
        capacity: int | None = None,
    ) -> None:
        super().__init__(message or "work queue full")
        self.wq_id = wq_id
        self.occupancy = occupancy
        self.capacity = capacity


class CompletionTimeoutError(ReproError):
    """A polled descriptor never produced a completion record in time.

    On real hardware this is how software observes a *lost* submission
    (e.g. a dropped portal write): the poll loop gives up after a bounded
    spin.  Raised only when the caller opts into a poll timeout.
    """

    def __init__(
        self,
        message: str = "",
        wq_id: int | None = None,
        waited_cycles: int | None = None,
    ) -> None:
        super().__init__(message or "completion record never arrived")
        self.wq_id = wq_id
        self.waited_cycles = waited_cycles


class CalibrationError(ReproError):
    """Threshold calibration could not produce a healthy hit/miss split.

    ``best`` holds the least-bad :class:`~repro.core.calibration.CalibrationResult`
    observed across the bounded retry attempts (``None`` when no attempt
    completed at all), so diagnostics can report how close it came.
    """

    def __init__(self, message: str = "", best: object | None = None) -> None:
        super().__init__(message or "calibration failed its health check")
        self.best = best


class InsufficientTrialsError(ReproError):
    """A guarded experiment finished with too few successful trials.

    Raised by :mod:`repro.experiments.runner` when contained per-trial
    failures (or breaker skips) left fewer successes than the plan's
    floor — the alternative to silently reporting a figure built from
    nothing.
    """


class CheckpointError(ReproError):
    """Crash-safe run state on disk is unusable.

    Raised by :mod:`repro.experiments.checkpoint` when a run directory's
    manifest or trial journal is missing, unparseable, or internally
    inconsistent — e.g. a journal entry referencing a payload file that
    does not exist.
    """


class ResumeMismatchError(CheckpointError):
    """A ``--resume`` target was produced by a different configuration.

    The run manifest records a hash of the experiment plan's
    configuration; resuming with different parameters (or a different
    experiment) would silently splice incompatible trial results into
    one artifact, so the mismatch aborts with this error instead.
    ``expected``/``actual`` carry the two hashes for diagnostics.
    """

    def __init__(
        self,
        message: str = "",
        expected: str | None = None,
        actual: str | None = None,
    ) -> None:
        super().__init__(message or "resume configuration mismatch")
        self.expected = expected
        self.actual = actual


class InvariantViolation(ReproError):
    """The runtime invariant monitor caught silent model corruption.

    Raised by :class:`~repro.invariants.monitor.InvariantMonitor` when a
    registered checker finds the model in a state that violates one of
    the architectural conservation laws (WQ credit conservation,
    exactly-once completion writes, DevTLB occupancy bounds, arbiter
    fairness, timeline monotonicity).  Unlike every other
    :class:`ReproError`, a violation is **never contained** by the trial
    guard: it means downstream latency distributions can no longer be
    trusted, so the run must stop with a distinct exit code.

    The carried context makes any trip replayable:

    ``invariant``
        Stable checker name (e.g. ``wq-credits``).
    ``timestamp``
        Simulated time (cycles) when the check ran.
    ``seed``
        The system seed of the run, when the monitor knows it.
    ``snapshot``
        A bounded ``{str: int | float | str}`` picture of the relevant
        model state at trip time.
    ``events``
        The monitor's recent event window (oldest first), each event a
        ``{str: int | str}`` dict.
    ``repro``
        A one-command reproduction hint (set by the soak driver /
        runner), empty when unknown.
    """

    def __init__(
        self,
        message: str = "",
        invariant: str = "",
        timestamp: int | None = None,
        seed: int | None = None,
        snapshot: "dict[str, object] | None" = None,
        events: "tuple[dict[str, object], ...]" = (),
        repro: str = "",
    ) -> None:
        super().__init__(message or f"invariant {invariant or '?'} violated")
        self.invariant = invariant
        self.timestamp = timestamp
        self.seed = seed
        self.snapshot = dict(snapshot or {})
        self.events = tuple(events)
        self.repro = repro

    def describe(self) -> str:
        """Multi-line report: message, snapshot, event window, repro."""
        lines = [f"InvariantViolation[{self.invariant}]: {self}"]
        if self.seed is not None:
            lines.append(f"  seed: {self.seed}")
        if self.timestamp is not None:
            lines.append(f"  timestamp: {self.timestamp} cycles")
        if self.snapshot:
            lines.append("  state snapshot:")
            for key in sorted(self.snapshot):
                lines.append(f"    {key} = {self.snapshot[key]!r}")
        if self.events:
            lines.append(f"  last {len(self.events)} events (oldest first):")
            for event in self.events:
                lines.append(f"    {event!r}")
        if self.repro:
            lines.append(f"  reproduce with: {self.repro}")
        return "\n".join(lines)


class UnhandledFaultError(ReproError):
    """An injected fault was absorbed without any layer accounting for it.

    The chaos contract is "injected faults are either handled or
    detected — never absorbed silently": every component that applies a
    fault effect calls
    :meth:`~repro.faults.injector.FaultInjector.acknowledge`, and
    :func:`~repro.experiments.runner.run_guarded_trials` audits the
    fired-versus-acknowledged ledger after each trial.  A trial that
    ends green while faults fired unacknowledged fails with this error
    instead — the structured alternative to a silently skewed figure.

    ``unacknowledged`` maps fault-site ids to the number of events that
    fired during the trial with no matching acknowledgement.
    """

    def __init__(
        self,
        message: str = "",
        unacknowledged: "dict[str, int] | None" = None,
    ) -> None:
        detail = unacknowledged or {}
        if not message:
            summary = ", ".join(
                f"{site}×{count}" for site, count in sorted(detail.items())
            )
            message = (
                "injected fault(s) absorbed with no handled outcome and no"
                f" invariant trip: {summary or 'unknown site'}"
            )
        super().__init__(message)
        self.unacknowledged = dict(detail)


class PoolError(ReproError):
    """The persistent worker pool could not execute a run as asked.

    Raised by :mod:`repro.experiments.pool` for supervision-level
    failures that are *not* a trial's own error: a closed pool asked to
    run, a worker that failed run setup, or — as the ``error`` of a
    ``poisoned`` run outcome — trials quarantined after repeatedly
    killing the workers executing them.
    """


class PoolProtocolError(PoolError):
    """A pool worker sent a message the parent cannot parse.

    Every worker→parent record travels as one pickle over the worker's
    pipe.  Bytes that do not unpickle, or a message with an unknown tag
    (hostile corruption, garbage from a dying worker), raise this on the
    parent side, which treats the worker as failed and requeues its
    unacknowledged trials — corruption is healed, never silently parsed.
    """


class ServiceError(ReproError):
    """The always-on session service failed a supervision-level duty.

    Raised by :mod:`repro.service` for faults of the *service* itself —
    a stalled device-time loop, a session scheduled on a quarantined
    lane, a drain that could not checkpoint — never for an individual
    session's own attack errors (those stay contained inside the
    session's retry budget).
    """


class AdmissionRejected(ServiceError):
    """A session was refused at the front door, with a typed reason.

    Admission control *rejects loudly*: every refusal carries the
    tenant, a stable machine-readable ``reason`` and — when the bucket
    can predict it — how many device cycles until a token will be
    available, so well-behaved load generators can back off instead of
    hammering.  Reasons are drawn from a closed set so the exit-path
    accounting (and the chaos matrix) can assert on *why* load was
    turned away:

    ``rate-limit``
        the service-wide token bucket is empty
    ``tenant-quota``
        the tenant's device-time budget or in-flight cap is exhausted
    ``queue-full``
        the bounded admission queue is at capacity (backpressure)
    ``circuit-open``
        the overload controller has circuit-broken new admissions
    ``admission-flap``
        the ``service_admission_flap`` chaos fault spuriously refused an
        otherwise admissible session
    ``draining``
        the service is in SIGTERM graceful drain
    """

    def __init__(
        self,
        message: str = "",
        tenant: str = "",
        reason: str = "",
        retry_after_cycles: int | None = None,
    ) -> None:
        super().__init__(
            message or f"admission rejected ({reason or 'unspecified'})"
        )
        self.tenant = tenant
        self.reason = reason
        self.retry_after_cycles = retry_after_cycles


class SessionDeadlineExceeded(ServiceError):
    """A session blew its per-session deadline budget (device cycles).

    The deadline is the session's *containment boundary*: a stalled
    round (e.g. the ``service_session_stall`` fault) is detected here
    rather than wedging a device lane forever.  Carries the budget and
    the observed elapsed cycles for the accounting ledger.
    """

    def __init__(
        self,
        message: str = "",
        session_id: str = "",
        deadline_cycles: int | None = None,
        elapsed_cycles: int | None = None,
    ) -> None:
        super().__init__(message or f"session {session_id or '?'} deadline")
        self.session_id = session_id
        self.deadline_cycles = deadline_cycles
        self.elapsed_cycles = elapsed_cycles


class LaneRevokedError(ServiceError):
    """A device lane was revoked while a session held it.

    The ``service_device_revoke`` fault site models a hypervisor
    reclaiming a simulated DSA device mid-attack.  The fleet quarantines
    the lane and rebuilds a replacement; the holding session retries on
    another lane inside its bounded retry budget.
    """

    def __init__(self, message: str = "", lane_id: int | None = None) -> None:
        super().__init__(message or f"device lane {lane_id} revoked")
        self.lane_id = lane_id


class ServiceOverloadError(ServiceError):
    """The run ended in a degraded state that breaches the service floor.

    Raised by the CLI layer (``python -m repro.service``) after final
    accounting when the overload controller had to open the admission
    circuit *and* the completed fraction of offered load fell below the
    configured floor — the condition mapped to
    :data:`repro.experiments.runner.EXIT_OVERLOAD`.
    """
