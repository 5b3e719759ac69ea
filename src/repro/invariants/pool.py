"""Pool-state invariant checker for the persistent worker pool.

The supervised executor (:mod:`repro.experiments.pool`) juggles enough
mutable bookkeeping — a trial queue, respawns, requeues, a poison ledger —
that a logic bug could silently drop a trial or journal one twice, which
is exactly the class of corruption the rest of this package exists to
rule out.  :class:`PoolStateChecker` is the pool's conscience: the parent
narrates every supervision step to it (worker state transitions, trial
dispatches, trial results, requeues, quarantines) and the checker raises
:class:`~repro.errors.InvariantViolation` (``invariant="pool-state"``,
exit code 6) the moment the story stops adding up:

* worker lifecycle transitions must follow the documented state machine
  (``spawning → healthy → respawning → spawning …``, see
  ``docs/parallel.md``);
* a trial index is assigned to at most one worker at a time, and never
  after it completed or was poisoned (no double execution);
* every result must come from the worker the trial is assigned to
  (exactly-once completion, the executor-layer analog of the
  completion-record checker);
* at the end of a run that claims success, every trial must be accounted
  for: completed, failed, breaker-skipped, or quarantined — never
  silently dropped.

The checker deliberately speaks in plain strings and ints so it has no
import edge back into :mod:`repro.experiments`.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping

from repro.errors import InvariantViolation

#: Worker lifecycle states: the one definition, which the pool narrates
#: with.
STATE_SPAWNING = "spawning"
STATE_HEALTHY = "healthy"
STATE_RESPAWNING = "respawning"
STATE_RETIRED = "retired"

#: Legal worker state transitions.  ``None`` is "never seen this run":
#: a worker always enters a run by (re)arming into ``spawning``.
_VALID_TRANSITIONS: Mapping[str | None, frozenset[str]] = {
    None: frozenset({STATE_SPAWNING}),
    STATE_SPAWNING: frozenset({STATE_HEALTHY, STATE_RESPAWNING, STATE_RETIRED}),
    STATE_HEALTHY: frozenset({STATE_RESPAWNING, STATE_RETIRED, STATE_SPAWNING}),
    STATE_RESPAWNING: frozenset({STATE_SPAWNING, STATE_RETIRED}),
    STATE_RETIRED: frozenset(),
}


class PoolStateChecker:
    """Validates one pool run's supervision bookkeeping as it happens."""

    name = "pool-state"

    def __init__(self, total_trials: int) -> None:
        if total_trials < 0:
            raise ValueError(f"total_trials cannot be negative, got {total_trials}")
        self.total_trials = total_trials
        self._worker_states: dict[int, str] = {}
        self._assigned: dict[int, int] = {}  # trial index -> worker id
        self._completed: set[int] = set()
        self._poisoned: set[int] = set()
        # Only the last ten events reach a violation report.
        self._transitions: deque[dict[str, object]] = deque(maxlen=10)

    # -- violation plumbing ---------------------------------------------
    def _trip(self, message: str, **snapshot: object) -> None:
        raise InvariantViolation(
            f"pool-state: {message}",
            invariant=self.name,
            snapshot={
                "assigned": len(self._assigned),
                "completed": len(self._completed),
                "poisoned": len(self._poisoned),
                "total_trials": self.total_trials,
                **snapshot,
            },
            events=tuple(self._transitions),
        )

    # -- worker lifecycle -----------------------------------------------
    def note_worker(self, worker_id: int, state: str, reason: str = "") -> None:
        """Record (and validate) one worker state transition."""
        previous = self._worker_states.get(worker_id)
        if state not in _VALID_TRANSITIONS:
            self._trip(
                f"worker {worker_id} entered unknown state {state!r}",
                worker=worker_id,
            )
        if previous == state:
            return  # idempotent re-assertion, not a transition
        if state not in _VALID_TRANSITIONS[previous]:
            self._trip(
                f"worker {worker_id} made illegal transition "
                f"{previous or 'unseen'} → {state} ({reason or 'no reason'})",
                worker=worker_id,
            )
        self._worker_states[worker_id] = state
        self._transitions.append(
            {
                "worker": worker_id,
                "from": previous or "unseen",
                "to": state,
                "reason": reason,
            }
        )

    def worker_state(self, worker_id: int) -> str | None:
        """The last recorded state of *worker_id* (``None`` if unseen)."""
        return self._worker_states.get(worker_id)

    # -- trial custody --------------------------------------------------
    def note_dispatch(self, worker_id: int, indices: "list[int] | tuple[int, ...]") -> None:
        """Trial *indices* were handed to *worker_id* (the pool hands
        out one at a time; the inline path takes all that remain)."""
        for index in indices:
            if index < 0 or index >= self.total_trials:
                self._trip(
                    f"dispatched out-of-range trial index {index}",
                    worker=worker_id,
                )
            if index in self._completed:
                self._trip(
                    f"trial {index} dispatched to worker {worker_id} after "
                    "already completing",
                    worker=worker_id,
                    trial=index,
                )
            if index in self._poisoned:
                self._trip(
                    f"poisoned trial {index} dispatched to worker {worker_id}",
                    worker=worker_id,
                    trial=index,
                )
            holder = self._assigned.get(index)
            if holder is not None and holder != worker_id:
                self._trip(
                    f"trial {index} double-assigned: worker {holder} still "
                    f"holds it, dispatched to worker {worker_id}",
                    worker=worker_id,
                    trial=index,
                )
            self._assigned[index] = worker_id

    def note_result(self, index: int, worker_id: int) -> None:
        """Worker *worker_id* reported a (journaled) result for *index*."""
        holder = self._assigned.get(index)
        if holder is None:
            self._trip(
                f"worker {worker_id} reported trial {index} which is not "
                "assigned to any worker",
                worker=worker_id,
                trial=index,
            )
        if holder != worker_id:
            self._trip(
                f"worker {worker_id} reported trial {index} assigned to "
                f"worker {holder}",
                worker=worker_id,
                trial=index,
            )
        if index in self._completed:
            self._trip(
                f"trial {index} completed twice (second report from "
                f"worker {worker_id})",
                worker=worker_id,
                trial=index,
            )
        del self._assigned[index]
        self._completed.add(index)

    def note_unassign(self, indices: "list[int] | tuple[int, ...]") -> None:
        """Trials returned to the queue unrun (requeue, or a worker
        released at the end of a run)."""
        for index in indices:
            self._assigned.pop(index, None)

    def note_poison(self, index: int) -> None:
        """Trial *index* was quarantined to the poison list."""
        if index in self._completed:
            self._trip(
                f"trial {index} poisoned after completing",
                trial=index,
            )
        if index in self._poisoned:
            self._trip(f"trial {index} poisoned twice", trial=index)
        self._assigned.pop(index, None)
        self._poisoned.add(index)

    @property
    def poisoned(self) -> frozenset[int]:
        """Indices quarantined so far."""
        return frozenset(self._poisoned)

    # -- end-of-run audit -----------------------------------------------
    def final_audit(self, accounted: int, skipped: int) -> None:
        """Completeness check for a run claiming a terminal artifact.

        *accounted* is journaled trials (successes + contained failures,
        resumed included); *skipped* is breaker-gated skips.  Together
        with the poison list they must cover the plan exactly — anything
        else means the pool silently dropped or double-counted a trial.
        Only terminal statuses call this; an interrupted/deadline run is
        legitimately partial.
        """
        if self._assigned:
            self._trip(
                f"run ended with {len(self._assigned)} trial(s) still "
                f"assigned to workers: {sorted(self._assigned)[:5]}",
            )
        expected = self.total_trials
        covered = accounted + skipped + len(self._poisoned)
        if covered != expected:
            self._trip(
                f"trial accounting mismatch: {accounted} journaled + "
                f"{skipped} breaker-skipped + {len(self._poisoned)} "
                f"poisoned = {covered}, plan has {expected}",
                accounted=accounted,
                skipped=skipped,
            )
