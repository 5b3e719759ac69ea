"""Delta-debugging reduction shared by the soak harness and the fuzzer.

One ddmin-lite implementation: drop progressively smaller chunks of a
failing item sequence while a caller-supplied predicate still observes
the *same* failure, within a bounded re-execution budget.  The algorithm
is deliberately simple — chunked removal with coarsening/refinement, no
caching — because every predicate call re-executes a full deterministic
workload and the budget, not cleverness, is the cost ceiling.

Both drivers reach it through :func:`repro.fuzz.executor.shrink_case`:
the predicate rebuilds a fresh system from the original seed, replays
the candidate operation list, and answers "does the identical finding
signature still appear?".  Because
the executions are pure functions of (seed, ops), the reduced sequence
the budget converges on is itself a deterministic artifact.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")

#: Default bound on predicate re-executions for one reduction.
DEFAULT_BUDGET = 120


def ddmin(
    items: Sequence[T],
    still_fails: Callable[[list[T]], bool],
    budget: int = DEFAULT_BUDGET,
) -> "tuple[list[T], int]":
    """Reduce *items* while ``still_fails(candidate)`` holds.

    Starts by removing halves, refines toward single-item chunks when
    removal stops succeeding, and re-coarsens after each successful
    drop.  Every predicate call counts against *budget*; the reduction
    stops at the budget, at a single surviving item, or when no
    single-item removal reproduces the failure.

    Returns ``(minimal items, predicate runs)``.  *items* itself is
    never re-tested — callers only reduce sequences they have already
    observed failing.
    """
    runs = 0

    def check(candidate: "list[T]") -> bool:
        nonlocal runs
        runs += 1
        return still_fails(candidate)

    current = list(items)
    chunks = 2
    while len(current) >= 2 and runs < budget:
        size = max(1, len(current) // chunks)
        reduced = False
        for start in range(0, len(current), size):
            if runs >= budget:
                break
            candidate = current[:start] + current[start + size :]
            if candidate and check(candidate):
                current = candidate
                chunks = max(2, chunks - 1)
                reduced = True
                break
        if not reduced:
            if size <= 1:
                break
            chunks = min(len(current), chunks * 2)
    return current, runs


__all__ = ["DEFAULT_BUDGET", "ddmin"]
