"""The invariant checker catalog.

Each checker encodes one architectural conservation law the DSA model
must uphold (the laws come from the paper's reverse engineering plus
Kuper et al.'s quantitative DSA analysis):

==================  ====================================================
``wq-credits``      WQ slot credits are conserved: occupancy moves only
                    by accepted submissions and completions (aborts
                    included), and stays within configured bounds.
``completion``      Completion records are written exactly once per
                    ticket and the ticket lifecycle is ordered
                    (enqueue <= dispatch <= completion).
``devtlb``          Each engine owns at most five sub-entries, no
                    sub-entry exceeds its associativity, partitioned
                    slots carry their partition's PASID, and DevTLB
                    traffic only names PASIDs the PASID table
                    currently binds.
``arbiter``         Under ``WQ_PRIORITY``, no batch descriptor beats a
                    ready work-queue descriptor and no lower-priority
                    queue beats a ready higher-priority one; a bounded
                    pass-over count catches starvation under any policy.
``timeline``        The shared TSC never moves backwards, device replay
                    time never exceeds it, and no event is stamped in
                    the clock's future.
==================  ====================================================

See ``docs/invariants.md`` for the catalog with failure examples.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.ats.devtlb import SUB_ENTRIES_PER_ENGINE
from repro.errors import QueueConfigurationError
from repro.invariants.monitor import InvariantChecker, InvariantMonitor


class WqCreditChecker(InvariantChecker):
    """WQ credit conservation and occupancy bounds.

    Maintains a monitor-side ledger of expected occupancy per queue from
    the event stream (accepted submit ``+1``, completion ``-1``; an
    aborted descriptor completes like any other) and compares it against
    the actual occupancy register at audit time — a leaked credit
    (completion without a slot release) or a double release shows up as
    a ledger divergence even though each individual mutation looked
    locally sane.
    """

    name = "wq-credits"
    kinds = frozenset({"submit", "complete"})

    def __init__(self) -> None:
        self._ledger: dict[int, int] = {}

    def _queue(self, monitor: InvariantMonitor, wq_id: int) -> Any:
        device = monitor.device
        if device is None:
            return None
        try:
            return device.queue_space.get(wq_id)
        except QueueConfigurationError:
            # An event for a queue this device does not configure is not
            # the monitor's crash to have; the audit simply has no
            # register to compare against.
            return None

    def observe(
        self,
        monitor: InvariantMonitor,
        kind: str,
        timestamp: int,
        context: dict[str, Any],
        payload: Any,
    ) -> None:
        wq_id = context.get("wq_id")
        if wq_id is None:
            return
        expected = self._ledger.get(wq_id)
        if expected is None:
            # First sighting: adopt the post-event occupancy so a monitor
            # attached mid-run still converges to a usable ledger.
            queue = self._queue(monitor, wq_id)
            if queue is not None:
                self._ledger[wq_id] = queue.occupancy
            return
        if kind == "submit":
            if context.get("accepted"):
                expected += 1
        elif kind == "complete":
            expected -= 1
        if expected < 0:
            monitor.fail(
                self.name,
                f"WQ {wq_id}: more slot releases than accepted submissions"
                f" (ledger went to {expected})",
            )
        self._ledger[wq_id] = expected

    def audit(self, monitor: InvariantMonitor) -> None:
        device = monitor.device
        if device is None:
            return
        space = device.queue_space
        if space.entries_configured > space.total_entries:
            monitor.fail(
                self.name,
                f"configured WQ sizes ({space.entries_configured}) exceed"
                f" hardware entry storage ({space.total_entries})",
            )
        for queue in space.queues():
            occupancy = queue.occupancy
            if not 0 <= occupancy <= queue.config.size:
                monitor.fail(
                    self.name,
                    f"WQ {queue.wq_id}: occupancy {occupancy} outside"
                    f" [0, {queue.config.size}]",
                )
            if queue.queued > occupancy:
                monitor.fail(
                    self.name,
                    f"WQ {queue.wq_id}: {queue.queued} queued entries but"
                    f" only {occupancy} slots held",
                )
            expected = self._ledger.get(queue.wq_id)
            if expected is not None and expected != occupancy:
                leaked = occupancy - expected
                monitor.fail(
                    self.name,
                    f"WQ {queue.wq_id}: credit leak — occupancy register"
                    f" reads {occupancy} but the event ledger expects"
                    f" {expected} ({leaked:+d} credit)",
                )


class CompletionChecker(InvariantChecker):
    """Exactly-once completion-record writes and ticket lifecycle order."""

    name = "completion"
    kinds = frozenset({"complete"})

    def __init__(self, history: int = 8192) -> None:
        self._recent: deque[int] = deque(maxlen=history)
        self._recent_set: set[int] = set()

    def observe(
        self,
        monitor: InvariantMonitor,
        kind: str,
        timestamp: int,
        context: dict[str, Any],
        payload: Any,
    ) -> None:
        ticket = payload
        if ticket is None:
            return
        ticket_id = getattr(ticket, "ticket_id", -1)
        if ticket_id >= 0:
            if ticket_id in self._recent_set:
                monitor.fail(
                    self.name,
                    f"completion record written twice for ticket"
                    f" {ticket_id} (WQ {ticket.wq_id})",
                )
            if (
                self._recent.maxlen is not None
                and len(self._recent) == self._recent.maxlen
            ):
                self._recent_set.discard(self._recent.popleft())
            self._recent.append(ticket_id)
            self._recent_set.add(ticket_id)
        if ticket.record is None:
            monitor.fail(
                self.name,
                f"ticket {ticket_id} reported complete without a"
                " completion record",
            )
        dispatch = ticket.dispatch_time
        completion = ticket.completion_time
        if dispatch is not None and dispatch < ticket.enqueue_time:
            monitor.fail(
                self.name,
                f"ticket {ticket_id}: dispatched at {dispatch} before its"
                f" enqueue at {ticket.enqueue_time}",
            )
        if (
            completion is not None
            and dispatch is not None
            and completion < dispatch
        ):
            monitor.fail(
                self.name,
                f"ticket {ticket_id}: completed at {completion} before its"
                f" dispatch at {dispatch}",
            )

    def audit(self, monitor: InvariantMonitor) -> None:
        device = monitor.device
        if device is None:
            return
        for engine_id in sorted(device.engines):
            for token in device.engines[engine_id].inflight:
                if getattr(token, "record", None) is not None:
                    monitor.fail(
                        self.name,
                        f"engine {engine_id}: in-flight descriptor already"
                        " carries a completion record (written before"
                        " retirement)",
                    )


class DevTlbChecker(InvariantChecker):
    """DevTLB occupancy/eviction consistency and PASID-table agreement.

    The PASID check runs at *access time* only: a stale entry for a
    destroyed process is architecturally expected (the device offers no
    PASID-selective DevTLB invalidation — see
    :meth:`repro.virt.system.CloudSystem.destroy_process`), but a lookup
    or fill for a PASID the table does not bind means the model
    fabricated traffic for a dead process.  Translation requests need no
    check here: the agent refuses an unbound PASID before it narrates.
    """

    name = "devtlb"
    kinds = frozenset({"devtlb"})

    def observe(
        self,
        monitor: InvariantMonitor,
        kind: str,
        timestamp: int,
        context: dict[str, Any],
        payload: Any,
    ) -> None:
        pasid = context.get("pasid")
        device = monitor.device
        if pasid is None or device is None:
            return
        if not device.pasid_table.is_bound(pasid):
            monitor.fail(
                self.name,
                f"translation traffic for PASID {pasid}, which the PASID"
                " table does not bind (PASID-table disagreement)",
            )

    def audit(self, monitor: InvariantMonitor) -> None:
        device = monitor.device
        if device is None:
            return
        devtlb = device.devtlb
        limit = devtlb.config.slots_per_subentry
        fields_per_engine: dict[int, set[str]] = {}
        for engine_id, field_name, key_pasid, slot_pasids in devtlb.census():
            if len(slot_pasids) > limit:
                monitor.fail(
                    self.name,
                    f"engine {engine_id} sub-entry {field_name!r} holds"
                    f" {len(slot_pasids)} slots (associativity {limit}):"
                    " eviction failed to run",
                )
            fields_per_engine.setdefault(engine_id, set()).add(field_name)
            if devtlb.config.pasid_partitioned and key_pasid is not None:
                for slot_pasid in slot_pasids:
                    if slot_pasid != key_pasid:
                        monitor.fail(
                            self.name,
                            f"partitioned sub-entry ({engine_id},"
                            f" {field_name!r}, PASID {key_pasid}) caches a"
                            f" slot tagged PASID {slot_pasid}",
                        )
        for engine_id, fields in fields_per_engine.items():
            if len(fields) > SUB_ENTRIES_PER_ENGINE:
                monitor.fail(
                    self.name,
                    f"engine {engine_id} owns {len(fields)} sub-entry field"
                    f" types; the device has {SUB_ENTRIES_PER_ENGINE}",
                )
        stats = devtlb.stats
        if stats.hits > stats.alloc_requests or stats.no_alloc > stats.alloc_requests:
            monitor.fail(
                self.name,
                "DevTLB Perfmon counters inconsistent: hits"
                f" {stats.hits} / no_alloc {stats.no_alloc} exceed"
                f" alloc_requests {stats.alloc_requests}",
            )


class ArbiterFairnessChecker(InvariantChecker):
    """Arbiter fairness: priority order and a bounded starvation window.

    Dispatch events carry a snapshot of every ready queue head at choice
    time.  Under the real ``WQ_PRIORITY`` policy a dispatched batch
    descriptor (or a lower-priority queue) while a ready work-queue head
    waited is an immediate priority inversion; under any policy, a queue
    head passed over more than *starvation_limit* consecutive dispatches
    trips the starvation bound.
    """

    name = "arbiter"
    kinds = frozenset({"dispatch"})

    def __init__(self, starvation_limit: int = 50_000) -> None:
        self.starvation_limit = starvation_limit
        self._passed_over: dict[int, int] = {}

    def observe(
        self,
        monitor: InvariantMonitor,
        kind: str,
        timestamp: int,
        context: dict[str, Any],
        payload: Any,
    ) -> None:
        snapshot = payload or ()
        chosen_wq = context.get("wq_id")
        if context.get("policy") == "wq-priority":
            if chosen_wq is None and snapshot:
                ready = ", ".join(str(wq_id) for wq_id, _, _ in snapshot)
                monitor.fail(
                    self.name,
                    "batch-buffer descriptor dispatched while work-queue"
                    f" heads were ready (WQs {ready}); the arbiter must"
                    " prefer work queues",
                )
            chosen_priority = int(context.get("priority", 0))
            for wq_id, priority, _ready_time in snapshot:
                if wq_id == chosen_wq:
                    continue
                if priority > chosen_priority:
                    monitor.fail(
                        self.name,
                        f"priority inversion: WQ {wq_id} (priority"
                        f" {priority}) was ready but WQ {chosen_wq}"
                        f" (priority {chosen_priority}) dispatched",
                    )
        for wq_id, _priority, _ready_time in snapshot:
            if wq_id == chosen_wq:
                continue
            passed = self._passed_over.get(wq_id, 0) + 1
            if passed > self.starvation_limit:
                monitor.fail(
                    self.name,
                    f"WQ {wq_id} starved: passed over {passed} consecutive"
                    f" dispatches (limit {self.starvation_limit})",
                )
            self._passed_over[wq_id] = passed
        if chosen_wq is not None:
            self._passed_over[chosen_wq] = 0


class TimelineChecker(InvariantChecker):
    """Timeline monotonicity across the clock, device, and event stream."""

    name = "timeline"
    kinds = None  # observes every event

    def __init__(self) -> None:
        self._device_time_floor = 0
        #: Latest event stamp already checked against the clock; the
        #: clock never moves back, so no stamp at or below it can fail.
        self._checked = 0

    def observe(
        self,
        monitor: InvariantMonitor,
        kind: str,
        timestamp: int,
        context: dict[str, Any],
        payload: Any,
    ) -> None:
        if timestamp <= self._checked:
            return
        clock = monitor.clock
        if clock is not None and timestamp > clock.now:
            monitor.fail(
                self.name,
                f"{kind} event stamped at {timestamp}, beyond the shared"
                f" TSC at {clock.now}",
            )
        self._checked = timestamp

    def audit(self, monitor: InvariantMonitor) -> None:
        device = monitor.device
        if device is None:
            return
        now = device.time
        if now < self._device_time_floor:
            monitor.fail(
                self.name,
                f"device replay time moved backwards: {now} <"
                f" {self._device_time_floor}",
            )
        self._device_time_floor = now
        clock = monitor.clock
        if clock is not None and now > clock.now:
            monitor.fail(
                self.name,
                f"device replay time {now} ran ahead of the shared TSC"
                f" at {clock.now}",
            )
        # Replay retires everything due by its time, so a descriptor still
        # in flight past its completion means advance_to skipped an event.
        for engine in device.engines.values():
            for item in engine.inflight:
                if item.completion_time <= now:
                    monitor.fail(
                        self.name,
                        f"engine {engine.engine_id} still holds a descriptor"
                        f" due at {item.completion_time} at device replay"
                        f" time {now}: replay skipped its retirement",
                    )


def default_checkers() -> tuple[InvariantChecker, ...]:
    """The full catalog, one fresh instance each (checkers are stateful)."""
    return (
        WqCreditChecker(),
        CompletionChecker(),
        DevTlbChecker(),
        ArbiterFairnessChecker(),
        TimelineChecker(),
    )
