# repro-lint-fixture-module: repro.experiments.fixture_sim002_inplace
"""SIM002 fixture: in-place container mutations from a non-owner."""

import bisect
import heapq
from bisect import insort as sorted_insert


def retire_by_hand(engine, n: int) -> None:
    del engine.inflight[:n]


def rewrite_head(engine, item) -> None:
    engine.inflight[0] = item


def admit_by_hand(engine, item) -> None:
    bisect.insort(engine.inflight, item, key=lambda i: i.completion_time)


def admit_through_alias(engine, item) -> None:
    sorted_insert(engine.inflight, item)


def reorder_queue(wq, entry) -> None:
    heapq.heappush(wq._entries, entry)
    heapq.heappop(wq._entries)


def forget_buffered(device) -> None:
    device._buffered -= 1


def local_containers(items, heap, ledger) -> None:
    # Unguarded receivers: none of these is in expected.json.
    del items[:2]
    items[0] = None
    heapq.heappush(heap, 1)
    bisect.insort(ledger.pending, 3)
    ledger.totals[0] += 1
