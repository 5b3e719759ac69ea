"""The runtime side of fault injection: firing decisions and the log.

Model components that own a fault site call :meth:`FaultInjector.fire`
at their hook point with the current timestamp and whatever context they
have (PASID, queue, engine).  The injector evaluates the plan's specs
for that site in order and returns at most one :class:`FaultEvent` — the
component then applies the effect itself.

Determinism contract
--------------------
Every spec owns a private :class:`numpy.random.Generator` spawned from
the plan seed via :class:`numpy.random.SeedSequence`, so firing
decisions never perturb (and are never perturbed by) the system RNG.
Because the simulation itself is deterministic, the sequence of ``fire``
calls — and therefore the event log — is a pure function of
``(plan, system seed)``: :meth:`FaultInjector.log_bytes` is
byte-identical across runs, which the chaos suite asserts.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan, FaultSite, FaultSpec
from repro.faults.sites import DEVICE_SITES, TIMELINE_SITES, coerce_site
from repro.hw.units import us_to_cycles


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as recorded in the log.

    ``context`` is a sorted tuple of ``(name, value)`` pairs taken from
    the hook call (``pasid``, ``wq_id``, ``engine_id``, ``address``), so
    chaos assertions can pinpoint the victim of each fault.
    """

    seq: int
    site: FaultSite
    timestamp: int
    spec_index: int
    magnitude_cycles: int = 0
    kind: str = ""
    context: tuple[tuple[str, int], ...] = ()

    def to_json(self) -> str:
        """Stable single-line JSON encoding (the log's wire format)."""
        return json.dumps(
            {
                "seq": self.seq,
                "site": self.site.value,
                "t": self.timestamp,
                "spec": self.spec_index,
                "magnitude": self.magnitude_cycles,
                "kind": self.kind,
                "ctx": dict(self.context),
            },
            sort_keys=True,
            separators=(",", ":"),
        )


class FaultInjector:
    """Evaluates a :class:`~repro.faults.plan.FaultPlan` at runtime.

    Parameters
    ----------
    plan:
        The immutable fault plan.
    max_log_events:
        Cap on retained events (oldest dropped first, counted in
        ``events_dropped``) so million-submission chaos runs stay
        bounded; ``None`` retains everything.
    """

    def __init__(self, plan: FaultPlan, max_log_events: int | None = 100_000) -> None:
        self.plan = plan
        root = np.random.SeedSequence(plan.seed)
        children = root.spawn(max(len(plan.specs), 1))
        self._rngs = [np.random.default_rng(child) for child in children]
        self._next_fire: list[int | None] = [None] * len(plan.specs)
        self._events: deque[FaultEvent] = deque(maxlen=max_log_events)
        self._seq = 0
        self.events_dropped = 0
        self.fired_by_site: dict[FaultSite, int] = {}
        self.handled_by_site: dict[FaultSite, int] = {}
        self.handled = 0
        self._last_action: dict[FaultSite, str] = {}
        self.opportunities = 0
        self._site_owners: dict[FaultSite, str] = {}

    # ------------------------------------------------------------------
    # Site registry
    # ------------------------------------------------------------------
    def register_site(self, site: FaultSite | str, owner: str) -> FaultSite:
        """Claim *site* for *owner* (an attachment point's label).

        Each site may be hooked at most once per injector: attaching the
        same injector to two devices would double-evaluate every device
        spec, silently doubling effective fault rates.  Registering an
        already-claimed site therefore raises
        :class:`~repro.errors.ConfigurationError` naming both owners, as
        does an unknown site id (via
        :func:`~repro.faults.sites.coerce_site`).
        """
        resolved = coerce_site(site)
        previous = self._site_owners.get(resolved)
        if previous is not None:
            raise ConfigurationError(
                f"fault site {resolved.value!r} already hooked by"
                f" {previous}; refusing duplicate hook-up by {owner}"
                " (one injector per device/timeline — build a fresh"
                " FaultInjector instead)"
            )
        self._site_owners[resolved] = owner
        return resolved

    @property
    def registered_sites(self) -> dict[FaultSite, str]:
        """Hooked sites and the attachment labels that claimed them."""
        return dict(self._site_owners)

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------
    def fire(
        self,
        site: FaultSite,
        timestamp: int,
        pasid: int | None = None,
        wq_id: int | None = None,
        engine_id: int | None = None,
        address: int | None = None,
    ) -> FaultEvent | None:
        """One injection opportunity at *site*; returns the fault, if any.

        Specs for the site are evaluated in plan order; the first one
        that triggers wins (at most one fault per opportunity).
        """
        self.opportunities += 1
        context = {"pasid": pasid, "wq_id": wq_id, "engine_id": engine_id}
        for index, spec in enumerate(self.plan.specs):
            if spec.site is not site:
                continue
            if not self._scope_matches(spec, context):
                continue
            if not self._window_open(spec, timestamp):
                continue
            if spec.periodic:
                if not self._periodic_due(index, spec, timestamp):
                    continue
            elif self._rngs[index].random() >= spec.probability:
                continue
            return self._record(index, spec, timestamp, context, address)
        return None

    @staticmethod
    def _scope_matches(spec: FaultSpec, context: dict[str, int | None]) -> bool:
        for name in ("pasid", "wq_id", "engine_id"):
            wanted = getattr(spec, name if name != "wq_id" else "wq_id")
            if wanted is not None and context.get(name) != wanted:
                return False
        return True

    @staticmethod
    def _window_open(spec: FaultSpec, timestamp: int) -> bool:
        if timestamp < us_to_cycles(spec.start_us):
            return False
        if spec.stop_us is not None and timestamp >= us_to_cycles(spec.stop_us):
            return False
        return True

    def _periodic_due(self, index: int, spec: FaultSpec, timestamp: int) -> bool:
        period = us_to_cycles(spec.period_us)
        due = self._next_fire[index]
        if due is None:
            due = us_to_cycles(spec.start_us) + period
        if timestamp < due:
            self._next_fire[index] = due
            return False
        while due <= timestamp:
            due += period
        self._next_fire[index] = due
        return True

    def _record(
        self,
        index: int,
        spec: FaultSpec,
        timestamp: int,
        context: dict[str, int | None],
        address: int | None,
    ) -> FaultEvent:
        ctx = {name: value for name, value in context.items() if value is not None}
        if address is not None:
            ctx["address"] = address
        event = FaultEvent(
            seq=self._seq,
            site=spec.site,
            timestamp=timestamp,
            spec_index=index,
            magnitude_cycles=spec.magnitude_cycles,
            kind=spec.kind,
            context=tuple(sorted(ctx.items())),
        )
        self._seq += 1
        if self._events.maxlen is not None and len(self._events) == self._events.maxlen:
            self.events_dropped += 1
        self._events.append(event)
        self.fired_by_site[spec.site] = self.fired_by_site.get(spec.site, 0) + 1
        return event

    def acknowledge(self, event: FaultEvent, action: str = "") -> None:
        """Record that *event*'s effect was applied and accounted.

        Every component that consumes a :meth:`fire` result must call
        this once the effect landed (slot aborts counted, stall cycles
        charged, the typed error raised).  The audit,
        :meth:`unacknowledged`, compares ``fired_by_site`` against
        ``handled_by_site``: in a guarded trial a fault
        that fired but was never acknowledged — and tripped no invariant
        — fails the trial as silently absorbed
        (:class:`~repro.errors.UnhandledFaultError`).  *action* is a
        short label kept for diagnostics on the last event per site.
        """
        self.handled += 1
        self.handled_by_site[event.site] = (
            self.handled_by_site.get(event.site, 0) + 1
        )
        self._last_action[event.site] = action

    def unacknowledged(
        self,
        fired_before: dict[FaultSite, int] | None = None,
        handled_before: dict[FaultSite, int] | None = None,
    ) -> dict[str, int]:
        """Site id → count of faults fired with no matching :meth:`acknowledge`.

        With *before* snapshots of ``fired_by_site`` / ``handled_by_site``
        the audit covers only what happened since they were taken (one
        trial's window); without them it covers the injector's lifetime.
        """
        fired_base = fired_before or {}
        handled_base = handled_before or {}
        gaps: dict[str, int] = {}
        for site, fired in self.fired_by_site.items():
            fired -= fired_base.get(site, 0)
            handled = self.handled_by_site.get(site, 0) - handled_base.get(site, 0)
            if fired > handled:
                gaps[site.value] = fired - handled
        return gaps

    # ------------------------------------------------------------------
    # The log
    # ------------------------------------------------------------------
    @property
    def events(self) -> tuple[FaultEvent, ...]:
        """Retained fault events, oldest first."""
        return tuple(self._events)

    @property
    def total_fired(self) -> int:
        """Faults injected across all sites (including rotated-out events)."""
        return self._seq

    def log_lines(self) -> list[str]:
        """The retained log as one JSON line per event."""
        return [event.to_json() for event in self._events]

    def log_bytes(self) -> bytes:
        """The retained log serialized for byte-identical comparison."""
        return ("\n".join(self.log_lines()) + "\n").encode() if self._events else b""

    # ------------------------------------------------------------------
    # Attachment (duck-typed: no imports of the model packages)
    # ------------------------------------------------------------------
    def attach_device(self, device) -> None:
        """Hook a :class:`~repro.dsa.device.DsaDevice` and its engines/PRS.

        Registers every device-owned site first, so attaching one
        injector to two devices fails loudly before any state is touched.
        """
        owner = f"attach_device({type(device).__name__})"
        for site in DEVICE_SITES:
            self.register_site(site, owner)
        device.fault_injector = self
        for engine in device.engines.values():
            engine.fault_injector = self
        device.prs.fault_injector = self

    def attach_timeline(self, timeline) -> None:
        """Hook a :class:`~repro.virt.scheduler.Timeline` (preemption site)."""
        owner = f"attach_timeline({type(timeline).__name__})"
        for site in TIMELINE_SITES:
            self.register_site(site, owner)
        timeline.fault_injector = self

    def attach_system(self, system) -> None:
        """Hook an entire :class:`~repro.virt.system.CloudSystem`."""
        self.attach_device(system.device)
        self.attach_timeline(system.timeline)
        system.fault_injector = self
