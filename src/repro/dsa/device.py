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
sorted by completion time on insert, so the earliest completion is one
head per engine, and the batch buffers are scanned only while
``_buffered`` (batch children awaiting dispatch) is non-zero.

A dispatch pass runs only while entries await dispatch
(``_pending_work``): it repeats arbiter rounds while the last one
dispatched something and work is still pending, so the round that
empties the queues is the last.  Each round takes its group's queues
from the per-group id-ordered tuples that ``HardwareQueueSpace``
rebuilds on ``configure``/``remove``.

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
from repro.dsa.arbiter import Arbiter, ArbiterChoice, ArbiterPolicy, BatchBufferEntry
from repro.dsa.batch import BatchFetcher
from repro.dsa.completion import CompletionRecord, CompletionStatus
from repro.dsa.descriptor import BatchDescriptor, Descriptor
from repro.dsa.engine import Engine, EngineTiming
from repro.dsa.opcodes import DescriptorFlags, Opcode
from repro.dsa.wq import HardwareQueueSpace, WorkQueue, WorkQueueConfig
from repro.errors import ConfigurationError, QueueConfigurationError
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
        self._groups: dict[int, GroupConfig] = {}
        self._batch_buffers: dict[int, list[BatchBufferEntry]] = {
            engine_id: [] for engine_id in self.engines
        }
        self._batch_sequence = 0
        self._tickets: dict[tuple[int, int], SubmissionTicket] = {}
        self._ticket_sequence = 0
        self._pending_work = 0  # entries awaiting dispatch (fast-path gate)
        self._buffered = 0  # batch children in the batch buffers
        self._time = 0
        self._wake: float = 0  # next possible replay event (module docstring)
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
        if entry is None:
            self.stats.submissions_retried += 1
            if self.invariant_monitor is not None:
                self.invariant_monitor.note(
                    "submit", time, wq_id=wq_id, pasid=descriptor.pasid, accepted=0
                )
            return True, None
        ticket = SubmissionTicket(
            descriptor=descriptor,
            wq_id=wq_id,
            enqueue_time=time,
            ticket_id=self._ticket_sequence,
        )
        self._ticket_sequence += 1
        self._tickets[(wq_id, entry.sequence)] = ticket
        self._pending_work += 1
        self.stats.submissions_accepted += 1
        if self.invariant_monitor is not None:
            self.invariant_monitor.note(
                "submit", time, wq_id=wq_id, pasid=descriptor.pasid, accepted=1
            )
        self._dispatch_ready(time)
        self._wake = self._next_wake(time)
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
            self._dispatch_ready(time)
            next_completion = self._next_completion_time()
            if next_completion > time:
                break
            self._retire_at(next_completion)
        self._time = time
        self._wake = self._next_wake(time)

    @property
    def next_event(self) -> float:
        """Lower bound on the next time :meth:`advance_to` can change state.

        ``advance_to(t)`` with ``t`` below it only moves the replay
        cursor; 0 right after a reconfiguration, infinity when idle.
        """
        return self._wake

    def _next_completion_time(self) -> float:
        """Earliest in-flight completion, or infinity when every engine is idle."""
        best = math.inf
        for engine in self.engines.values():
            if engine.inflight and engine.inflight[0].completion_time < best:
                best = engine.inflight[0].completion_time
        return best

    def _next_wake(self, limit: int) -> float:
        """Lower bound on the next replay event after a dispatch pass at *limit*.

        Until then every engine's arbiter choice stays blocked or empty:
        no descriptor retires and no batch child becomes available.
        """
        wake = self._next_completion_time()
        if self._buffered:
            for buffer in self._batch_buffers.values():
                for entry in buffer:
                    if limit < entry.available_time < wake:
                        wake = entry.available_time
        return wake

    def _retire_at(self, time: int) -> None:
        for engine in self.engines.values():
            if engine.inflight:
                for token in engine.retire_due(time):
                    self._complete_ticket(token, time)

    def _complete_ticket(self, ticket: SubmissionTicket, time: int) -> None:
        """Write the completion record, free the WQ slot, resolve batches."""
        descriptor = ticket.descriptor
        if isinstance(descriptor, Descriptor) and descriptor.wants_completion:
            space = self.pasid_table.lookup(descriptor.pasid)
            space.write(descriptor.completion_addr, ticket.pending_record.encode())
        if isinstance(descriptor, Descriptor) and (
            int(descriptor.flags) & int(DescriptorFlags.REQUEST_COMPLETION_INTERRUPT)
        ):
            self.interrupt_log.append(
                InterruptEvent(
                    timestamp=time,
                    pasid=descriptor.pasid,
                    interrupt_handle=descriptor.interrupt_handle,
                )
            )
            self.stats.interrupts_raised += 1
        ticket.record = ticket.pending_record
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
                self._complete_batch_parent(parent, time)

    def _complete_batch_parent(self, parent: SubmissionTicket, time: int) -> None:
        """Batch parent record write — bypasses the DevTLB (Section IV-B)."""
        batch = parent.descriptor
        assert isinstance(batch, BatchDescriptor)
        record = CompletionRecord(status=CompletionStatus.SUCCESS, result=batch.count)
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
        """Dispatch everything that can start at or before *limit*."""
        progressed = True
        while progressed and self._pending_work:
            progressed = False
            for group in self._groups.values():
                queues = self.queue_space.group_queues(group.group_id)
                for engine_id in group.engine_ids:
                    if self._try_dispatch_one(group, engine_id, queues, limit):
                        progressed = True

    def _try_dispatch_one(
        self,
        group: GroupConfig,
        engine_id: int,
        queues: tuple[WorkQueue, ...],
        limit: int,
    ) -> bool:
        engine = self.engines[engine_id]
        buffer = self._batch_buffers[engine_id]
        choice = self.arbiter.choose(queues, buffer, limit)
        if choice is None:
            return False

        descriptor = (
            choice.wq_entry.descriptor
            if choice.wq_entry is not None
            else choice.batch_entry.descriptor
        )

        if isinstance(descriptor, BatchDescriptor):
            return self._dispatch_batch(group, choice, queues, limit)

        start = engine.earliest_start(
            after=choice.ready_time,
            needs_idle=descriptor.opcode is Opcode.DRAIN,
        )
        if start > limit:
            return False

        monitor = self.invariant_monitor
        snapshot = self._ready_heads(queues, limit) if monitor is not None else None
        ticket = self._pop_choice(choice, buffer)
        ticket.dispatch_time = start
        ticket.engine_id = engine_id
        if monitor is not None:
            monitor.note(
                "dispatch",
                start,
                payload=snapshot,
                wq_id=choice.wq.wq_id if choice.wq is not None else None,
                priority=(
                    choice.wq.config.priority if choice.wq is not None else None
                ),
                policy=self.arbiter.policy.value,
                engine_id=engine_id,
                source="wq" if choice.wq is not None else "batch",
            )
        outcome = engine.execute(descriptor, start)
        ticket.completion_time = start + outcome.cycles
        ticket.devtlb_hits = outcome.devtlb_hits
        ticket.devtlb_misses = outcome.devtlb_misses
        ticket.pending_record = outcome.record
        engine.admit(completion_time=ticket.completion_time, token=ticket)
        return True

    def _dispatch_batch(
        self,
        group: GroupConfig,
        choice: ArbiterChoice,
        queues: tuple[WorkQueue, ...],
        limit: int,
    ) -> bool:
        """Hand a batch descriptor to the batch engine (fetcher)."""
        assert choice.wq_entry is not None, "batches only arrive via work queues"
        start = choice.ready_time
        if start > limit:
            return False
        monitor = self.invariant_monitor
        snapshot = self._ready_heads(queues, limit) if monitor is not None else None
        ticket = self._pop_choice(choice)
        batch = ticket.descriptor
        assert isinstance(batch, BatchDescriptor)
        ticket.dispatch_time = start
        if monitor is not None:
            assert choice.wq is not None
            monitor.note(
                "dispatch",
                start,
                payload=snapshot,
                wq_id=choice.wq.wq_id,
                priority=choice.wq.config.priority,
                policy=self.arbiter.policy.value,
                source="batch-parent",
            )
        result = self.fetcher.fetch(batch, start)
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
        return True

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

    def _pop_choice(
        self, choice: ArbiterChoice, buffer: list[BatchBufferEntry] | None = None
    ) -> SubmissionTicket:
        """Remove the chosen entry from its source and return its ticket.

        A batch child is removed by identity from *buffer*, the engine
        buffer the arbiter chose it from.
        """
        self._pending_work -= 1
        if choice.wq_entry is not None:
            assert choice.wq is not None
            entry = choice.wq.pop()
            assert entry is choice.wq_entry, "arbiter raced the queue"
            return self._tickets.pop((choice.wq.wq_id, entry.sequence))
        assert choice.batch_entry is not None and buffer is not None
        for index, entry in enumerate(buffer):
            if entry is choice.batch_entry:
                del buffer[index]
                self._buffered -= 1
                return entry.parent_token
        raise AssertionError("batch entry vanished from its engine's buffer")

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
