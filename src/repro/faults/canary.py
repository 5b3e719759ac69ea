"""Seeded canary bugs — the fuzzer's own regression oracle.

A fuzzer whose oracles never fire proves nothing: a broken generator, a
detached monitor, or a shrinker that destroys the failure all look
exactly like a clean model.  The canaries are two small, realistic bugs
planted in the model behind the ``REPRO_FUZZ_CANARY`` environment
variable; ``tests/fuzz`` asserts the campaign finds *and shrinks* both
within a fixed trial budget, which pins the whole
generate → execute → detect → shrink → report pipeline end to end.

The two bugs (chosen so each trips a *different* invariant checker):

``wq-credit``
    A work queue that rejects a batch descriptor while full still
    charges the occupancy register one credit — the classic
    accounting-on-the-error-path leak.  Caught by the ``wq-credits``
    ledger audit.
``devtlb-evict``
    The DevTLB eviction check runs one slot too late, letting a
    sub-entry exceed its configured associativity.  Caught by the
    ``devtlb`` census audit.

Arming: set ``REPRO_FUZZ_CANARY`` to a canary name, a comma-separated
list of names, or ``all``/``1`` for every canary.  The flag is read once,
when the buggy structure is built (``DevTlb`` and ``WorkQueue``
construction), so an unarmed model pays nothing per operation.  Arming
takes effect for structures built after the variable is set: every fuzz
case, soak run and ``--replay`` builds a fresh ``CloudSystem``, so tests
still arm and disarm canaries per test via ``monkeypatch.setenv``.
"""

from __future__ import annotations

import os

#: Environment variable that arms the canary bugs.
CANARY_ENV = "REPRO_FUZZ_CANARY"

#: WQ credit leak on a rejected batch (planted in ``repro.dsa.wq``).
CANARY_WQ_CREDIT = "wq-credit"

#: DevTLB eviction off-by-one (planted in ``repro.ats.devtlb``).
CANARY_DEVTLB_EVICT = "devtlb-evict"

#: Every known canary name, in documentation order.
ALL_CANARIES: "tuple[str, ...]" = (CANARY_WQ_CREDIT, CANARY_DEVTLB_EVICT)


def canary_active(name: str) -> bool:
    """Whether the canary *name* is armed via ``REPRO_FUZZ_CANARY``."""
    raw = os.environ.get(CANARY_ENV, "")
    if not raw:
        return False
    tokens = {token.strip().lower() for token in raw.split(",") if token.strip()}
    if tokens & {"1", "all"}:
        return True
    return name in tokens


__all__ = [
    "ALL_CANARIES",
    "CANARY_DEVTLB_EVICT",
    "CANARY_ENV",
    "CANARY_WQ_CREDIT",
    "canary_active",
]
