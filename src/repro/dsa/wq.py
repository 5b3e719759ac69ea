"""Work queues.

Section IV-A's reverse engineering: all software-visible work queues live
in **one hardware queue** partitioned into virtual queues by configuration
registers; each virtual queue's occupancy is tracked in per-queue
registers and checked against the configuration at enqueue time, which is
what makes the full/not-full answer of DMWr constant-time.

:class:`WorkQueue` models one virtual queue; :class:`HardwareQueueSpace`
enforces that configured sizes fit the physical entry storage (128 entries
on the real device).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from repro.dsa.descriptor import BatchDescriptor, Descriptor
from repro.errors import QueueConfigurationError
from repro.faults.canary import CANARY_WQ_CREDIT, canary_active

#: Physical descriptor-entry storage shared by all virtual queues.
TOTAL_WQ_ENTRIES = 128


class WqMode(enum.Enum):
    """Queue submission mode."""

    SHARED = "shared"  # enqcmd/DMWr, multi-PASID
    DEDICATED = "dedicated"  # movdir64b, single client


@dataclass(frozen=True)
class WorkQueueConfig:
    """Configuration registers of one virtual queue."""

    wq_id: int
    size: int
    mode: WqMode = WqMode.SHARED
    priority: int = 0
    group_id: int = 0

    def __post_init__(self) -> None:
        if self.size < 1:
            raise QueueConfigurationError(
                f"WQ {self.wq_id}: size must be at least 1, got {self.size}"
            )
        if not 0 <= self.priority <= 15:
            raise QueueConfigurationError(
                f"WQ {self.wq_id}: priority must be 0-15, got {self.priority}"
            )


class QueuedEntry(NamedTuple):
    """A descriptor waiting in a virtual queue."""

    descriptor: Descriptor | BatchDescriptor
    enqueue_time: int
    sequence: int


class WorkQueue:
    """One virtual work queue carved out of the hardware queue."""

    def __init__(self, config: WorkQueueConfig) -> None:
        self.config = config
        #: Queue identifier (portal index).
        self.wq_id = config.wq_id
        self._entries: deque[QueuedEntry] = deque()
        self._outstanding = 0
        self._sequence = 0
        self.enqueued_total = 0
        self.rejected_total = 0
        self.max_occupancy_seen = 0
        # Seeded canary bug (REPRO_FUZZ_CANARY=wq-credit), read once here.
        self._credit_canary = canary_active(CANARY_WQ_CREDIT)

    @property
    def occupancy(self) -> int:
        """Slots in use (the per-queue occupancy register).

        A slot is held from acceptance until the descriptor *completes* —
        a dispatched-but-executing descriptor still anchors its entry,
        which is why the SWQ attack's large head descriptor keeps the
        queue congested (Section V-C: "anchor the head of the SWQ").
        """
        return self._outstanding

    @property
    def queued(self) -> int:
        """Descriptors accepted but not yet dispatched to an engine."""
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        """Constant-time full check, as the enqueue path performs it."""
        return self._outstanding >= self.config.size

    @property
    def free_slots(self) -> int:
        """Remaining capacity."""
        return self.config.size - self._outstanding

    def try_enqueue(
        self, descriptor: Descriptor | BatchDescriptor, time: int
    ) -> QueuedEntry | None:
        """Enqueue *descriptor* at *time*; return ``None`` when full.

        A ``None`` return is the DMWr *retry* answer that sets
        ``EFLAGS.ZF`` for the submitter.
        """
        if self._outstanding >= self.config.size:
            self.rejected_total += 1
            if self._credit_canary and isinstance(descriptor, BatchDescriptor):
                # Seeded canary bug (REPRO_FUZZ_CANARY=wq-credit): the
                # rejected batch still charges a slot credit, leaking
                # occupancy the wq-credits ledger audit must catch.
                self._outstanding += 1
            return None
        entry = QueuedEntry(descriptor, time, self._sequence)
        self._sequence += 1
        self._entries.append(entry)
        self._outstanding += 1
        self.enqueued_total += 1
        if self._outstanding > self.max_occupancy_seen:
            self.max_occupancy_seen = self._outstanding
        return entry

    def release_slot(self) -> None:
        """Free one slot (called by the device at descriptor completion)."""
        if self._outstanding <= 0:
            raise QueueConfigurationError(
                f"WQ {self.wq_id}: slot release without an outstanding entry"
            )
        self._outstanding -= 1

    def peek(self) -> QueuedEntry | None:
        """Oldest waiting entry, or ``None``."""
        return self._entries[0] if self._entries else None

    def pop(self) -> QueuedEntry:
        """Remove and return the oldest entry (dispatch to an engine)."""
        if not self._entries:
            raise IndexError(f"WQ {self.wq_id} is empty")
        return self._entries.popleft()

    def take_pending(self, pasid: int | None = None) -> list[QueuedEntry]:
        """Remove and return the queued entries, only *pasid*'s if given.

        A taken entry keeps its slot until the device completes it (with
        an ``ABORT`` record), like a dispatched one.
        """
        taken: list[QueuedEntry] = []
        kept: deque[QueuedEntry] = deque()
        for entry in self._entries:
            if pasid is None or entry.descriptor.pasid == pasid:
                taken.append(entry)
            else:
                kept.append(entry)
        self._entries = kept
        return taken

    def __len__(self) -> int:
        return len(self._entries)


class HardwareQueueSpace:
    """The physical entry storage all virtual queues share."""

    def __init__(self, total_entries: int = TOTAL_WQ_ENTRIES) -> None:
        if total_entries < 1:
            raise QueueConfigurationError("hardware queue needs at least one entry")
        self.total_entries = total_entries
        self._queues: dict[int, WorkQueue] = {}
        self._ordered: tuple[WorkQueue, ...] = ()
        self._by_group: dict[int, tuple[WorkQueue, ...]] = {}

    def configure(self, config: WorkQueueConfig) -> WorkQueue:
        """Create a virtual queue, enforcing the storage budget."""
        if config.wq_id in self._queues:
            raise QueueConfigurationError(f"WQ {config.wq_id} already configured")
        used = sum(q.config.size for q in self._queues.values())
        if used + config.size > self.total_entries:
            raise QueueConfigurationError(
                f"WQ sizes would exceed hardware storage: "
                f"{used} + {config.size} > {self.total_entries}"
            )
        queue = WorkQueue(config)
        self._queues[config.wq_id] = queue
        self._reorder()
        return queue

    def remove(self, wq_id: int) -> None:
        """Tear down a virtual queue and release its storage."""
        if self._queues.pop(wq_id, None) is None:
            raise QueueConfigurationError(f"WQ {wq_id} is not configured")
        self._reorder()

    def _reorder(self) -> None:
        self._ordered = tuple(self._queues[k] for k in sorted(self._queues))
        by_group: dict[int, list[WorkQueue]] = {}
        for queue in self._ordered:
            by_group.setdefault(queue.config.group_id, []).append(queue)
        self._by_group = {gid: tuple(qs) for gid, qs in by_group.items()}

    def get(self, wq_id: int) -> WorkQueue:
        """Return the virtual queue *wq_id*."""
        try:
            return self._queues[wq_id]
        except KeyError:
            raise QueueConfigurationError(f"WQ {wq_id} is not configured") from None

    def queues(self) -> tuple[WorkQueue, ...]:
        """All configured queues, by id."""
        return self._ordered

    def group_queues(self, group_id: int) -> tuple[WorkQueue, ...]:
        """The configured queues of group *group_id*, by id."""
        try:
            return self._by_group[group_id]
        except KeyError:
            return ()

    @property
    def entries_configured(self) -> int:
        """Entry storage currently assigned to virtual queues."""
        return sum(q.config.size for q in self._queues.values())
