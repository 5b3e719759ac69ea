"""The in-engine arbiter.

Section IV-C ("Undocumented Arbiter"): descriptors waiting in work queues
are **always dispatched before** descriptors sitting in the batch buffer,
even when the batch descriptor arrived first.  This is why batch
descriptors cannot be used to congest a queue and why the SWQ attack
anchors with a plain memcpy work descriptor.

Among work queues the arbiter honors the configured queue priority, then
FIFO order by enqueue time.  :class:`ArbiterPolicy` exposes the FIFO
alternative for the ablation benchmark.
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


@dataclass(frozen=True)
class ArbiterChoice:
    """What the arbiter picked: exactly one source is non-None."""

    wq: WorkQueue | None = None
    wq_entry: QueuedEntry | None = None
    batch_entry: BatchBufferEntry | None = None

    @property
    def ready_time(self) -> int:
        """When the chosen descriptor became available for dispatch."""
        if self.wq_entry is not None:
            return self.wq_entry.enqueue_time
        assert self.batch_entry is not None
        return self.batch_entry.available_time


class Arbiter:
    """Selects the next descriptor for an engine."""

    def __init__(self, policy: ArbiterPolicy = ArbiterPolicy.WQ_PRIORITY) -> None:
        self.policy = policy

    def choose(
        self,
        queues: Sequence[WorkQueue],
        batch_buffer: list[BatchBufferEntry],
        time: int,
    ) -> ArbiterChoice | None:
        """Pick the next descriptor available at *time*, or ``None``.

        The returned entry is **not** removed from its source; the caller
        pops it once admission succeeds.
        """
        wq_candidate = self._best_wq(queues, time)
        batch_candidate = self._best_batch(batch_buffer, time)
        if wq_candidate is None and batch_candidate is None:
            return None
        if self.policy is ArbiterPolicy.WQ_PRIORITY:
            if wq_candidate is not None:
                return wq_candidate
            return batch_candidate
        # FIFO ablation: earliest arrival wins, work queue breaking ties.
        if wq_candidate is None:
            return batch_candidate
        if batch_candidate is None:
            return wq_candidate
        if batch_candidate.ready_time < wq_candidate.ready_time:
            return batch_candidate
        return wq_candidate

    @staticmethod
    def _best_wq(queues: Sequence[WorkQueue], time: int) -> ArbiterChoice | None:
        best: tuple[int, int, int] | None = None
        chosen: tuple[WorkQueue, QueuedEntry] | None = None
        for queue in queues:
            entry = queue.peek()
            if entry is None or entry.enqueue_time > time:
                continue
            key = (-queue.config.priority, entry.enqueue_time, queue.wq_id)
            if best is None or key < best:
                best = key
                chosen = (queue, entry)
        if chosen is None:
            return None
        return ArbiterChoice(wq=chosen[0], wq_entry=chosen[1])

    @staticmethod
    def _best_batch(
        batch_buffer: list[BatchBufferEntry], time: int
    ) -> ArbiterChoice | None:
        if not batch_buffer:
            return None
        ready = [e for e in batch_buffer if e.available_time <= time]
        if not ready:
            return None
        entry = min(ready, key=lambda e: (e.available_time, e.sequence))
        return ArbiterChoice(batch_entry=entry)
