"""The DSA device: queues, engines, groups, and the dispatch loop.

The device is *event-timestamped*: software interactions (portal writes,
completion polls) carry the shared TSC time, and :meth:`DsaDevice.advance_to`
lazily replays queue dispatch and descriptor retirement up to that time.
This keeps million-probe attack traces fast while preserving the ordering
that matters — queue occupancy at enqueue time, arbiter choices, DevTLB
mutation order, and the in-flight byte window that produces the paper's
congestion behavior.

Replay is gated on its next event.  ``_wake`` is a lower bound on the
next time :meth:`DsaDevice.advance_to` can change state: the earliest
in-flight completion, or the earliest batch-buffer ``available_time``
later than the last dispatch pass (infinity when idle).  Every full
``advance_to`` pass and every accepted :meth:`DsaDevice.submit`
recompute it, and ``advance_to(t)`` with ``t < _wake`` only moves the
replay cursor.  Configuration changes (``configure_group``,
``configure_wq``) reset it to 0.  So does :meth:`DsaDevice.disable_wq`:
removing work usually leaves a stale bound that is merely conservative,
but aborting a queued ``DRAIN`` (which waits for an idle engine) can
free a processing unit for work behind it before the bound.  Tearing
down an empty queue (``queue_space.remove``) changes no dispatch
candidate and leaves the bound valid.  :attr:`DsaDevice.next_event`
exposes the bound read-only; a polled wait
(:meth:`repro.dsa.portal.Portal.wait`) jumps its clock to the first spin
that reaches it.

The bound is cheap to recompute: each engine's ``inflight`` list is
sorted by completion time on insert, the earliest completion across
the fixed engine tuple is cached (``_next_completion``, lowered on
admit and recomputed by each retirement), and the batch buffers are
scanned only while ``_buffered`` (batch children awaiting dispatch) is
non-zero.

One function dispatches, :meth:`DsaDevice._dispatch_ready`, and it runs
only while entries await dispatch (``_pending_work``).  It repeats
arbiter rounds while the last one dispatched something and work is
still pending, so the round that empties the queues is the last.  Each
round takes its group's queues from the per-group id-ordered tuples that
``HardwareQueueSpace`` rebuilds on ``configure``/``remove``.  Batch
parents, batch children, the FIFO ablation and the invariant monitor's
ready-head snapshot are branches of that one path; the arbiter
(:mod:`repro.dsa.arbiter`) alone decides which entry an engine gets.

A round skips an engine that is *busy past the pass*: its
``concurrent_descriptors``-th latest in-flight completion lies after
the pass's time limit, so no work or batch-buffer descriptor can start
on it.  The skip is exact only while no ``BatchDescriptor`` waits in a
work queue (``_queued_batches`` is zero), because a batch parent goes
to the batch fetcher even when its engine is busy; with one queued, the
round asks the arbiter as usual.

Work-queue/engine topology follows the real device's *group* concept: a
group is a set of work queues feeding a set of engines.  Cross-group
resources never interact (which is what experiment E2 demonstrates for the
DevTLB at the engine level).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.ats.agent import TranslationAgent
from repro.ats.devtlb import DevTlb, DevTlbConfig
from repro.ats.iotlb import IoTlb
from repro.ats.pasid import PasidTable
from repro.ats.prs import PageRequestService
from repro.dsa.arbiter import Arbiter, ArbiterPolicy, BatchBufferEntry
from repro.dsa.batch import BatchFetcher
from repro.dsa.completion import CompletionRecord, CompletionStatus
from repro.dsa.descriptor import BatchDescriptor, Descriptor
from repro.dsa.engine import Engine, EngineTiming
from repro.dsa.opcodes import Opcode
from repro.dsa.wq import HardwareQueueSpace, WorkQueue, WorkQueueConfig
from repro.errors import (
    ConfigurationError,
    InvalidDescriptorError,
    InvariantViolation,
    QueueConfigurationError,
    ReproError,
    TranslationFault,
)
from repro.faults.plan import FaultSite
from repro.hw.clock import TscClock
from repro.hw.memory import PhysicalMemory
from repro.hw.noise import Environment, noise_model_for
from repro.hw.pcie import PcieLink


@dataclass
class SubmissionTicket:
    """Tracks one submitted descriptor through dispatch and completion."""

    descriptor: Descriptor | BatchDescriptor
    wq_id: int | None
    enqueue_time: int
    dispatch_time: int | None = None
    completion_time: int | None = None
    engine_id: int | None = None
    record: CompletionRecord | None = None
    pending_record: CompletionRecord | None = None
    devtlb_hits: int = 0
    devtlb_misses: int = 0
    children_pending: int = 0
    parent: "SubmissionTicket | None" = None
    #: Device-wide monotonic id, used by the exactly-once completion
    #: invariant (``-1`` for tickets that never reached the device).
    ticket_id: int = -1

    @property
    def completed(self) -> bool:
        """Whether the completion record has been written."""
        return self.record is not None


@dataclass(frozen=True)
class GroupConfig:
    """One DSA group: which engines serve which work queues."""

    group_id: int
    engine_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.engine_ids:
            raise QueueConfigurationError(
                f"group {self.group_id} must contain at least one engine"
            )


@dataclass(frozen=True)
class InterruptEvent:
    """One completion interrupt (REQUEST_COMPLETION_INTERRUPT flag)."""

    timestamp: int
    pasid: int
    interrupt_handle: int


@dataclass
class DeviceStats:
    """Aggregate device counters."""

    submissions_accepted: int = 0
    submissions_retried: int = 0
    descriptors_completed: int = 0
    interrupts_raised: int = 0
    injected_wq_drains: int = 0
    injected_drain_aborts: int = 0


@dataclass(frozen=True)
class DsaDeviceConfig:
    """Structural configuration of a :class:`DsaDevice`."""

    engine_count: int = 4
    total_wq_entries: int = 128
    devtlb: DevTlbConfig = field(default_factory=DevTlbConfig)
    timing: EngineTiming = field(default_factory=EngineTiming)
    arbiter_policy: ArbiterPolicy = ArbiterPolicy.WQ_PRIORITY
    environment: Environment = Environment.LOCAL
    #: Section VII hardware mitigation: hide the DMWr accept/retry answer
    #: from unprivileged submitters (the hardware retries internally in a
    #: constant-time slot and ZF always reads 0).
    dmwr_privileged: bool = False


class DsaDevice:
    """A behavioral Intel DSA.

    Parameters
    ----------
    memory:
        Host physical memory (shared with all guests).
    clock:
        The shared TSC.
    rng:
        Seeded generator for all stochastic latency.
    config:
        Structural configuration.
    """

    def __init__(
        self,
        memory: PhysicalMemory,
        clock: TscClock,
        rng: np.random.Generator,
        config: DsaDeviceConfig | None = None,
    ) -> None:
        self.memory = memory
        self.clock = clock
        self.rng = rng
        self.config = config or DsaDeviceConfig()

        self.pasid_table = PasidTable()
        self.prs = PageRequestService()
        self.agent = TranslationAgent(self.pasid_table, IoTlb(), self.prs)
        self.devtlb = DevTlb(self.config.devtlb)
        self.link = PcieLink(rng=rng, environment=self.config.environment)
        self.fetcher = BatchFetcher(self.agent)
        self.arbiter = Arbiter(self.config.arbiter_policy)
        self.queue_space = HardwareQueueSpace(self.config.total_wq_entries)
        self.stats = DeviceStats()

        noise = noise_model_for(self.config.environment)
        self.engines: dict[int, Engine] = {
            engine_id: Engine(
                engine_id=engine_id,
                devtlb=self.devtlb,
                agent=self.agent,
                noise=noise,
                rng=rng,
                timing=self.config.timing,
            )
            for engine_id in range(self.config.engine_count)
        }
        self._engine_list = tuple(self.engines.values())
        self._groups: dict[int, GroupConfig] = {}
        self._batch_buffers: dict[int, list[BatchBufferEntry]] = {
            engine_id: [] for engine_id in self.engines
        }
        self._batch_sequence = 0
        self._tickets: dict[tuple[int, int], SubmissionTicket] = {}
        self._ticket_sequence = 0
        self._pending_work = 0  # entries awaiting dispatch (fast-path gate)
        self._buffered = 0  # batch children in the batch buffers
        self._queued_batches = 0  # BatchDescriptors waiting in work queues
        self._time = 0
        self._wake: float = 0  # next possible replay event (module docstring)
        self._next_completion: float = math.inf  # earliest in-flight completion
        self.interrupt_log: list[InterruptEvent] = []
        self.fault_injector = None
        self.invariant_monitor = None

    # ------------------------------------------------------------------
    # Configuration (root-only paths are gated by AccelConfig)
    # ------------------------------------------------------------------
    def configure_group(self, group_id: int, engine_ids: tuple[int, ...] | list[int]) -> None:
        """Assign *engine_ids* to group *group_id*."""
        engine_ids = tuple(engine_ids)
        for engine_id in engine_ids:
            if engine_id not in self.engines:
                raise ConfigurationError(f"engine {engine_id} does not exist")
            for other in self._groups.values():
                if other.group_id != group_id and engine_id in other.engine_ids:
                    raise QueueConfigurationError(
                        f"engine {engine_id} already belongs to group {other.group_id}"
                    )
        self._groups[group_id] = GroupConfig(group_id=group_id, engine_ids=engine_ids)
        self._wake = 0

    def configure_wq(self, wq_config: WorkQueueConfig) -> WorkQueue:
        """Create a virtual work queue (its group must exist)."""
        if wq_config.group_id not in self._groups:
            raise QueueConfigurationError(
                f"WQ {wq_config.wq_id} references unknown group {wq_config.group_id}"
            )
        queue = self.queue_space.configure(wq_config)
        self._wake = 0
        return queue

    def bind_process(self, pasid: int, address_space) -> None:
        """Install a PASID → page-table binding (device open path)."""
        self.pasid_table.bind(pasid, address_space)

    def group_of_wq(self, wq_id: int) -> GroupConfig:
        """The group serving *wq_id*."""
        wq = self.queue_space.get(wq_id)
        return self._groups[wq.config.group_id]

    def groups(self) -> list[GroupConfig]:
        """All configured groups, by id."""
        return [self._groups[key] for key in sorted(self._groups)]

    @property
    def environment(self) -> Environment:
        """Host environment (noise model selector)."""
        return self.link.environment

    def set_environment(self, environment: Environment) -> None:
        """Switch noise environment for the link and every engine."""
        self.link.set_environment(environment)
        noise = noise_model_for(environment)
        for engine in self.engines.values():
            engine.noise = noise

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self, wq_id: int, descriptor: Descriptor | BatchDescriptor, time: int
    ) -> tuple[bool, SubmissionTicket | None]:
        """Try to enqueue *descriptor* at *time*.

        Returns ``(zf, ticket)``: ``zf`` is ``True`` when the queue was
        full (the DMWr retry answer) and the descriptor was **not**
        accepted.
        """
        self.advance_to(time)
        descriptor.validate()
        if self.fault_injector is not None:
            drain = self.fault_injector.fire(
                FaultSite.WQ_DRAIN, timestamp=time, pasid=descriptor.pasid, wq_id=wq_id
            )
            if drain is not None:
                # Mid-flight drain/disable: queued descriptors abort (the
                # idxd WQ-disable path), then the queue resumes service —
                # including for the submission that triggered the
                # opportunity.
                self.stats.injected_wq_drains += 1
                self.stats.injected_drain_aborts += self.disable_wq(wq_id)
                self.fault_injector.acknowledge(drain, action="wq-disable")
        wq = self.queue_space.get(wq_id)
        entry = wq.try_enqueue(descriptor, time)
        monitor = self.invariant_monitor
        if entry is None:
            self.stats.submissions_retried += 1
        else:
            ticket = SubmissionTicket(
                descriptor=descriptor,
                wq_id=wq_id,
                enqueue_time=time,
                ticket_id=self._ticket_sequence,
            )
            self._ticket_sequence += 1
            self._tickets[(wq_id, entry.sequence)] = ticket
            self._pending_work += 1
            if isinstance(descriptor, BatchDescriptor):
                self._queued_batches += 1
            self.stats.submissions_accepted += 1
        if monitor is not None:
            # Narration reads enum members' ``_value_``/``_name_``: the
            # ``.value``/``.name`` properties cost a Python call apiece.
            monitor.note(
                "submit",
                time,
                wq_id=wq_id,
                pasid=descriptor.pasid,
                accepted=int(entry is not None),
                mode=wq.config.mode._value_,
                quartile=min(3, 4 * wq.occupancy // wq.config.size),
            )
        if entry is None:
            return True, None
        try:
            self._dispatch_ready(time)
        except ReproError as exc:
            # The submitter gets this error instead of an answer.
            if monitor is not None and not isinstance(exc, InvariantViolation):
                monitor.note("submit-error", time, wq_id=wq_id, mode=wq.config.mode.value)
            raise
        self._wake = self._next_wake(time) if self._buffered else self._next_completion
        return False, ticket

    # ------------------------------------------------------------------
    # Time advancement
    # ------------------------------------------------------------------
    def advance_to(self, time: int) -> None:
        """Replay dispatch and retirement up to *time*."""
        if time < self._time:
            return
        if time < self._wake:
            self._time = time
            return
        while True:
            if self._pending_work:
                self._dispatch_ready(time)
            next_completion = self._next_completion
            if next_completion > time:
                break
            self._retire_at(next_completion)
        self._time = time
        self._wake = self._next_wake(time) if self._buffered else self._next_completion

    @property
    def next_event(self) -> float:
        """Lower bound on the next time :meth:`advance_to` can change state.

        ``advance_to(t)`` with ``t`` below it only moves the replay
        cursor; 0 right after a reconfiguration, infinity when idle.
        """
        return self._wake

    def _next_wake(self, limit: int) -> float:
        """Lower bound on the next replay event after a dispatch pass at *limit*.

        Until then every engine's arbiter choice stays blocked or empty:
        no descriptor retires and no batch child becomes available.
        """
        wake = self._next_completion
        for buffer in self._batch_buffers.values():
            for entry in buffer:
                if limit < entry.available_time < wake:
                    wake = entry.available_time
        return wake

    def _retire_at(self, time: int) -> None:
        """Complete everything due at *time* and recompute the next completion."""
        best = math.inf
        for engine in self._engine_list:
            inflight = engine.inflight
            if not inflight:
                continue
            if inflight[0].completion_time <= time:
                for ticket in engine.retire_due(time):
                    self._complete_ticket(ticket, time)
                if not inflight:
                    continue
            if inflight[0].completion_time < best:
                best = inflight[0].completion_time
        self._next_completion = best

    def _complete_ticket(self, ticket: SubmissionTicket, time: int) -> None:
        """Write the completion record, free the WQ slot, resolve batches.

        Only plain descriptors reach an engine, so *ticket* never holds a
        batch parent (those complete in :meth:`_complete_batch_parent`).
        """
        descriptor = ticket.descriptor
        record = ticket.pending_record
        if descriptor.wants_completion:
            space = self.pasid_table.lookup(descriptor.pasid)
            space.write(descriptor.completion_addr, record.encode())
        if descriptor.wants_interrupt:
            self.interrupt_log.append(
                InterruptEvent(
                    timestamp=time,
                    pasid=descriptor.pasid,
                    interrupt_handle=descriptor.interrupt_handle,
                )
            )
            self.stats.interrupts_raised += 1
        ticket.record = record
        if ticket.wq_id is not None:
            self.queue_space.get(ticket.wq_id).release_slot()
        self.stats.descriptors_completed += 1
        if self.invariant_monitor is not None:
            self.invariant_monitor.note(
                "complete",
                time,
                payload=ticket,
                wq_id=ticket.wq_id,
                engine_id=ticket.engine_id,
                pasid=descriptor.pasid,
            )
        parent = ticket.parent
        if parent is not None:
            parent.children_pending -= 1
            if parent.children_pending == 0:
                batch = parent.descriptor
                self._complete_batch_parent(
                    parent,
                    time,
                    CompletionRecord(status=CompletionStatus.SUCCESS, result=batch.count),
                )

    def _complete_batch_parent(
        self, parent: SubmissionTicket, time: int, record: CompletionRecord
    ) -> None:
        """Batch parent record write — bypasses the DevTLB (Section IV-B)."""
        batch = parent.descriptor
        assert isinstance(batch, BatchDescriptor)
        parent.completion_time = time
        space = self.pasid_table.lookup(batch.pasid)
        if batch.completion_addr:
            space.write(batch.completion_addr, record.encode())
        parent.record = record
        if parent.wq_id is not None:
            self.queue_space.get(parent.wq_id).release_slot()
        self.stats.descriptors_completed += 1
        if self.invariant_monitor is not None:
            self.invariant_monitor.note(
                "complete",
                time,
                payload=parent,
                wq_id=parent.wq_id,
                pasid=batch.pasid,
            )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch_ready(self, limit: int) -> None:
        """Dispatch everything that can start at or before *limit*.

        The device's only dispatch path (module docstring): one arbiter
        choice per engine per round, then a branch per source.
        """
        choose = self.arbiter.choose
        engines = self.engines
        buffers = self._batch_buffers
        concurrent = self.config.timing.concurrent_descriptors
        monitor = self.invariant_monitor
        progressed = True
        while progressed and self._pending_work:
            progressed = False
            for group in self._groups.values():
                queues = None
                for engine_id in group.engine_ids:
                    engine = engines[engine_id]
                    inflight = engine.inflight
                    if (
                        not self._queued_batches
                        and len(inflight) >= concurrent
                        and inflight[-concurrent].completion_time > limit
                    ):
                        continue  # busy past the pass (module docstring)
                    if queues is None:
                        queues = self.queue_space.group_queues(group.group_id)
                    buffer = buffers[engine_id]
                    choice = choose(queues, buffer, limit)
                    if choice is None:
                        continue
                    wq, entry, start = choice
                    descriptor = entry.descriptor
                    is_batch = isinstance(descriptor, BatchDescriptor)
                    if inflight and not is_batch:  # an idle engine starts at once
                        start = engine.earliest_start(
                            after=start, needs_idle=descriptor.opcode is Opcode.DRAIN
                        )
                    if start > limit:
                        continue
                    snapshot = (
                        self._ready_heads(queues, limit) if monitor is not None else None
                    )
                    # Remove the chosen entry from its source.
                    self._pending_work -= 1
                    if wq is not None:
                        popped = wq.pop()
                        assert popped is entry, "arbiter raced the queue"
                        ticket = self._tickets.pop((wq.wq_id, entry.sequence))
                    else:
                        for index, buffered in enumerate(buffer):
                            if buffered is entry:
                                del buffer[index]
                                break
                        else:
                            raise AssertionError("batch entry left its engine's buffer")
                        self._buffered -= 1
                        ticket = entry.parent_token
                    ticket.dispatch_time = start
                    progressed = True
                    if monitor is not None:
                        # None-valued fields drop out of the event.
                        monitor.note(
                            "dispatch",
                            start,
                            payload=snapshot,
                            wq_id=wq.wq_id if wq is not None else None,
                            priority=wq.config.priority if wq is not None else None,
                            policy=self.arbiter.policy._value_,
                            engine_id=None if is_batch else engine_id,
                            source=(
                                "batch-parent"
                                if is_batch
                                else "wq" if wq is not None else "batch"
                            ),
                            opcode=None if is_batch else descriptor.opcode._name_,
                        )
                    if is_batch:
                        self._queued_batches -= 1
                        self._fetch_batch(group, ticket, start)
                        continue
                    ticket.engine_id = engine_id
                    cycles, record, hits, misses = engine.execute(descriptor, start)
                    completion = start + cycles
                    ticket.completion_time = completion
                    ticket.devtlb_hits = hits
                    ticket.devtlb_misses = misses
                    ticket.pending_record = record
                    engine.admit(ticket)
                    if completion < self._next_completion:
                        self._next_completion = completion

    def _fetch_batch(self, group: GroupConfig, ticket: SubmissionTicket, start: int) -> None:
        """Hand a dispatched batch parent to the batch engine (fetcher).

        Its children land in one engine's batch buffer.  A descriptor
        list that cannot be fetched (an undecodable or foreign-PASID
        child, or an untranslatable list page) completes the parent at
        once with ``BATCH_FAIL`` (``PAGE_FAULT`` for the translation) and
        frees its slot.
        """
        batch = ticket.descriptor
        try:
            result = self.fetcher.fetch(batch, start)
        except (InvalidDescriptorError, TranslationFault) as exc:
            if isinstance(exc, TranslationFault):
                record = CompletionRecord(
                    status=CompletionStatus.PAGE_FAULT, fault_address=exc.address
                )
            else:
                record = CompletionRecord(status=CompletionStatus.BATCH_FAIL)
            self._complete_batch_parent(ticket, start, record)
            return
        available = start + result.cycles
        ticket.children_pending = len(result.descriptors)
        engine_id = group.engine_ids[self._batch_sequence % len(group.engine_ids)]
        for descriptor in result.descriptors:
            child = SubmissionTicket(
                descriptor=descriptor,
                wq_id=None,
                enqueue_time=available,
                parent=ticket,
                ticket_id=self._ticket_sequence,
            )
            self._ticket_sequence += 1
            self._batch_buffers[engine_id].append(
                BatchBufferEntry(
                    descriptor=descriptor,
                    available_time=available,
                    parent_token=child,
                    sequence=self._batch_sequence,
                )
            )
            self._batch_sequence += 1
            self._pending_work += 1
            self._buffered += 1

    def _ready_heads(
        self, queues: tuple[WorkQueue, ...], time: int
    ) -> tuple[tuple[int, int, int], ...]:
        """Ready queue heads as ``(wq_id, priority, enqueue_time)`` triples.

        The arbiter-fairness invariant compares this snapshot (taken at
        choice time, before the chosen entry is popped) against the
        dispatched descriptor.
        """
        heads = []
        for queue in queues:
            entry = queue.peek()
            if entry is not None and entry.enqueue_time <= time:
                heads.append(
                    (queue.wq_id, queue.config.priority, entry.enqueue_time)
                )
        return tuple(heads)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def wq(self, wq_id: int) -> WorkQueue:
        """Return the virtual work queue *wq_id*."""
        return self.queue_space.get(wq_id)

    def disable_wq(self, wq_id: int) -> int:
        """Disable a queue: abort undispatched entries, free their slots.

        Mirrors the idxd driver's WQ-disable path: descriptors already on
        an engine run to completion; queued ones are aborted with an
        ``ABORT`` completion status so pollers do not hang.  Returns the
        number of aborted descriptors.
        """
        queue = self.queue_space.get(wq_id)
        aborted = 0
        for entry in queue.drain_pending():
            ticket = self._tickets.pop((wq_id, entry.sequence), None)
            self._pending_work -= 1
            descriptor = entry.descriptor
            if isinstance(descriptor, BatchDescriptor):
                self._queued_batches -= 1
            record = CompletionRecord(status=CompletionStatus.ABORT)
            if isinstance(descriptor, Descriptor) and descriptor.wants_completion:
                space = self.pasid_table.lookup(descriptor.pasid)
                space.write(descriptor.completion_addr, record.encode())
            if ticket is not None:
                ticket.completion_time = self._time
                ticket.record = record
            aborted += 1
        self._wake = 0
        if self.invariant_monitor is not None:
            self.invariant_monitor.note(
                "drain", self._time, wq_id=wq_id, aborted=aborted
            )
        return aborted

    @property
    def time(self) -> int:
        """Device-local replay time (<= the shared clock)."""
        return self._time
