"""The in-engine arbiter.

Section IV-C ("Undocumented Arbiter"): descriptors waiting in work queues
are **always dispatched before** descriptors sitting in the batch buffer,
even when the batch descriptor arrived first.  This is why batch
descriptors cannot be used to congest a queue and why the SWQ attack
anchors with a plain memcpy work descriptor.

Among work queues the arbiter honors the configured queue priority, then
FIFO order by enqueue time, then the lower queue id.
:class:`ArbiterPolicy` exposes the FIFO alternative for the ablation
benchmark.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

from repro.dsa.wq import QueuedEntry, WorkQueue


class ArbiterPolicy(enum.Enum):
    """Dispatch policies."""

    #: The real device: work-queue descriptors beat batch-buffer ones.
    WQ_PRIORITY = "wq-priority"
    #: Ablation: strict arrival-time FIFO across both sources.
    FIFO = "fifo"


@dataclass(frozen=True)
class BatchBufferEntry:
    """A descriptor fetched by the batch engine, waiting for dispatch."""

    descriptor: object
    available_time: int
    parent_token: object
    sequence: int


#: What :meth:`Arbiter.choose` picked: the winning work queue (``None``
#: for a batch-buffer entry), the entry itself, and when it became ready.
Choice = tuple["WorkQueue | None", "QueuedEntry | BatchBufferEntry", int]


class Arbiter:
    """Selects the next descriptor for an engine."""

    def __init__(self, policy: ArbiterPolicy = ArbiterPolicy.WQ_PRIORITY) -> None:
        self.policy = policy

    def choose(
        self,
        queues: Sequence[WorkQueue],
        batch_buffer: list[BatchBufferEntry],
        time: int,
    ) -> Choice | None:
        """Pick the next descriptor available at *time*, or ``None``.

        Returns ``(queue, entry, ready_time)``; *queue* is ``None`` when
        the entry comes from *batch_buffer*.  The entry is **not**
        removed from its source; the caller pops it once admission
        succeeds.
        """
        chosen = None
        for queue in queues:
            entry = queue.peek()
            if entry is None or entry.enqueue_time > time:
                continue
            if chosen is None:
                chosen, best = queue, entry
                continue
            priority = queue.config.priority
            best_priority = chosen.config.priority
            if priority > best_priority or (
                priority == best_priority
                and (
                    entry.enqueue_time < best.enqueue_time
                    or (
                        entry.enqueue_time == best.enqueue_time
                        and queue.config.wq_id < chosen.config.wq_id
                    )
                )
            ):
                chosen, best = queue, entry
        if chosen is not None and (
            self.policy is ArbiterPolicy.WQ_PRIORITY or not batch_buffer
        ):
            return chosen, best, best.enqueue_time
        batch = self._best_batch(batch_buffer, time) if batch_buffer else None
        if batch is None:
            return None if chosen is None else (chosen, best, best.enqueue_time)
        # FIFO ablation: earliest arrival wins, work queue breaking ties.
        if chosen is not None and best.enqueue_time <= batch.available_time:
            return chosen, best, best.enqueue_time
        return None, batch, batch.available_time

    @staticmethod
    def _best_batch(
        batch_buffer: list[BatchBufferEntry], time: int
    ) -> BatchBufferEntry | None:
        best = None
        for entry in batch_buffer:
            if entry.available_time <= time and (
                best is None
                or entry.available_time < best.available_time
                or (
                    entry.available_time == best.available_time
                    and entry.sequence < best.sequence
                )
            ):
                best = entry
        return best
