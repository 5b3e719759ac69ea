"""The runtime invariant monitor.

:class:`InvariantMonitor` hangs off the model the same way
:class:`~repro.faults.injector.FaultInjector` does — duck-typed
attachment, no imports of the model packages — and receives a
:meth:`~InvariantMonitor.note` call, the model's only narration call, at
each model step point (``docs/invariants.md`` lists the event kinds).
Registered checkers, the fuzzer's coverage map among them, observe every
event with O(1) bookkeeping; the more expensive full-state audits run at
every event in ``strict`` mode and every ``sample_every``-th event in
``sampling`` mode.

A failed check raises :class:`~repro.errors.InvariantViolation` carrying
the run seed, a bounded state snapshot, and the recent event window —
enough to replay the trip as a one-command repro (see
``docs/invariants.md``).  The monitor is strictly read-only: it never
advances the clock, consumes RNG draws, or mutates model state, so an
attached monitor cannot perturb the simulation it is checking.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Callable, Iterable

from repro.errors import ConfigurationError, InvariantViolation

#: Recent events retained for violation reports.
EVENT_WINDOW = 64


class MonitorMode(enum.Enum):
    """How often the full-state audits run."""

    #: Audit at every step point (soak and chaos runs).
    STRICT = "strict"
    #: Audit every ``sample_every``-th event (cheap enough to leave on).
    SAMPLING = "sampling"


def coerce_mode(mode: "MonitorMode | str") -> MonitorMode:
    """Accept a :class:`MonitorMode`, its value, or the ``sample`` alias."""
    if isinstance(mode, MonitorMode):
        return mode
    name = str(mode).strip().lower()
    if name == "sample":
        name = MonitorMode.SAMPLING.value
    try:
        return MonitorMode(name)
    except ValueError:
        raise ConfigurationError(
            f"unknown invariant-monitor mode {mode!r}; expected one of"
            f" {[m.value for m in MonitorMode]} (or 'sample')"
        ) from None


class InvariantChecker:
    """Base class for pluggable invariant checkers.

    ``kinds`` scopes :meth:`observe` to matching events (``None`` means
    every event).  :meth:`observe` must stay O(1) — it runs on every
    matching step point in both modes; :meth:`audit` may scan model
    state and runs at the monitor's audit cadence.  Both report problems
    via :meth:`InvariantMonitor.fail`, which raises.
    """

    #: Stable checker name, used as ``InvariantViolation.invariant``.
    name: str = ""
    #: Event kinds this checker observes (``None`` = all).
    kinds: "frozenset[str] | None" = None

    def observe(
        self,
        monitor: "InvariantMonitor",
        kind: str,
        timestamp: int,
        context: "dict[str, Any]",
        payload: Any,
    ) -> None:
        """O(1) per-event bookkeeping; runs on every matching event."""

    def audit(self, monitor: "InvariantMonitor") -> None:
        """Full-state scan; runs at the monitor's audit cadence."""


class InvariantMonitor:
    """Checks architectural conservation laws at model step points.

    Parameters
    ----------
    mode:
        ``strict`` (audit every event) or ``sampling``.
    sample_every:
        Audit cadence in ``sampling`` mode.
    seed:
        The run seed carried into violations (filled in by
        :meth:`attach_system` when the system exposes one).
    repro_hint:
        One-command reproduction string carried into violations (set by
        the soak driver).
    checkers:
        Checker instances; defaults to the full catalog from
        :func:`repro.invariants.checkers.default_checkers`.
    """

    def __init__(
        self,
        mode: "MonitorMode | str" = MonitorMode.STRICT,
        sample_every: int = 64,
        seed: "int | None" = None,
        repro_hint: str = "",
        checkers: "Iterable[InvariantChecker] | None" = None,
    ) -> None:
        if sample_every < 1:
            raise ConfigurationError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self.mode = coerce_mode(mode)
        self.sample_every = sample_every
        self._audit_every = 1 if self.mode is MonitorMode.STRICT else sample_every
        self.seed = seed
        self.repro_hint = repro_hint
        if checkers is None:
            # Local import: checkers read model constants (the DevTLB
            # sub-entry count), and keeping the import here lets the
            # monitor core stay free of model dependencies for callers
            # that supply their own checkers.
            from repro.invariants.checkers import default_checkers

            checkers = default_checkers()
        self.checkers: tuple[InvariantChecker, ...] = tuple(checkers)
        self._events: "deque[tuple[int, str, int, dict[str, Any]]]"
        self._events = deque(maxlen=EVENT_WINDOW)
        self._by_kind: "dict[str, tuple[Callable[..., None], ...]]" = {}
        #: The attached device and its shared clock (``None`` before
        #: attachment); read-only for everyone but :meth:`attach_device`.
        self.device: Any = None
        self.clock: Any = None
        self._clock_floor = 0
        self._last_timestamp = 0
        self.events_seen = 0
        self.audits_run = 0
        self.violations = 0

    # ------------------------------------------------------------------
    # Attachment (duck-typed: no imports of the model packages)
    # ------------------------------------------------------------------
    def attach_device(self, device: Any) -> None:
        """Hook a :class:`~repro.dsa.device.DsaDevice` and its satellites.

        Sets the ``invariant_monitor`` attribute on the device, its
        DevTLB, translation agent, PRS and engines, and the shared
        clock; the portals narrate through their device's attribute.
        One monitor per device: the checkers' ledgers assume a single
        event stream.
        """
        if self.device is not None and self.device is not device:
            raise ConfigurationError(
                "this InvariantMonitor is already attached to a device;"
                " build a fresh monitor per system"
            )
        for component in (device, device.devtlb, device.agent, device.prs, device.clock):
            component.invariant_monitor = self
        for engine in device.engines.values():
            engine.invariant_monitor = self
        self.device = device
        self.clock = device.clock
        self._clock_floor = device.clock.now

    def attach_system(self, system: Any) -> None:
        """Hook an entire :class:`~repro.virt.system.CloudSystem`."""
        self.attach_device(system.device)
        if self.seed is None:
            self.seed = getattr(system, "seed", None)
        system.invariant_monitor = self

    # ------------------------------------------------------------------
    # The hot path
    # ------------------------------------------------------------------
    def note(
        self,
        kind: str,
        timestamp: "int | None" = None,
        payload: Any = None,
        **context: Any,
    ) -> None:
        """Record one model step event and run the registered checkers.

        *timestamp* is simulated cycles; ``None`` reuses the latest seen
        (components like the DevTLB have no clock reference).  *payload*
        carries a transient object for checkers (the completion ticket,
        the arbiter's ready snapshot) and is **not** retained in the
        event window — only scalar *context* is.
        """
        seen = self.events_seen = self.events_seen + 1
        if timestamp is None:
            ts = self._last_timestamp
        else:
            ts = int(timestamp)
            if ts > self._last_timestamp:
                self._last_timestamp = ts
        if None in context.values():
            context = {k: v for k, v in context.items() if v is not None}
        self._events.append((seen, kind, ts, context))
        try:
            observers = self._by_kind[kind]
        except KeyError:
            observers = self._interested(kind)
        for observe in observers:
            observe(self, kind, ts, context, payload)
        if not seen % self._audit_every:
            self._audit()

    def observe_clock(self, now: int) -> None:
        """Clock hook: assert the shared TSC never moves backwards."""
        if now < self._clock_floor:
            self.fail(
                "timeline",
                f"shared TSC moved backwards: {now} < {self._clock_floor}",
            )
        self._clock_floor = now

    def _interested(self, kind: str) -> "tuple[Callable[..., None], ...]":
        """Cache and return the ``observe`` methods scoped to *kind*."""
        observers = tuple(
            checker.observe
            for checker in self.checkers
            if checker.kinds is None or kind in checker.kinds
        )
        self._by_kind[kind] = observers
        return observers

    def _audit(self) -> None:
        self.audits_run += 1
        for checker in self.checkers:
            checker.audit(self)

    def check_all(self) -> None:
        """Run every checker's full audit (the end-of-run sweep)."""
        self._audit()

    # ------------------------------------------------------------------
    # Violation reporting
    # ------------------------------------------------------------------
    def fail(self, invariant: str, message: str) -> None:
        """Raise an :class:`~repro.errors.InvariantViolation` for *invariant*."""
        raise self.violation(invariant, message)

    def violation(self, invariant: str, message: str) -> InvariantViolation:
        """Build (without raising) the structured violation for *invariant*."""
        self.violations += 1
        return InvariantViolation(
            message=f"{invariant}: {message}",
            invariant=invariant,
            timestamp=self._last_timestamp,
            seed=self.seed,
            snapshot=self.snapshot(),
            events=self.event_window(),
            repro=self.repro_hint,
        )

    def event_window(self) -> "tuple[dict[str, Any], ...]":
        """The retained events as dicts, oldest first."""
        return tuple(
            {"seq": seq, "kind": kind, "t": ts, **dict(sorted(ctx.items()))}
            for seq, kind, ts, ctx in self._events
        )

    def snapshot(self) -> "dict[str, Any]":
        """A bounded picture of the attached model's state."""
        snap: dict[str, Any] = {
            "monitor.events_seen": self.events_seen,
            "monitor.audits_run": self.audits_run,
            "monitor.mode": self.mode.value,
        }
        device = self.device
        if device is None:
            return snap
        if self.clock is not None:
            snap["clock.now"] = self.clock.now
        snap["device.time"] = device.time
        stats = getattr(device, "stats", None)
        if stats is not None:
            snap["device.submissions_accepted"] = stats.submissions_accepted
            snap["device.descriptors_completed"] = stats.descriptors_completed
        for wq in device.queue_space.queues()[:8]:
            snap[f"wq{wq.wq_id}.occupancy"] = wq.occupancy
            snap[f"wq{wq.wq_id}.queued"] = wq.queued
            snap[f"wq{wq.wq_id}.size"] = wq.config.size
        snap["devtlb.occupancy"] = device.devtlb.occupancy
        for engine_id in sorted(device.engines)[:8]:
            snap[f"engine{engine_id}.inflight"] = len(
                device.engines[engine_id].inflight
            )
        return snap
