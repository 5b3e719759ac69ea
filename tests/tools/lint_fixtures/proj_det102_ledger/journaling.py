# repro-lint-fixture-module: fixproj.journaling
"""Executors journaling through the run ledger: its result argument is
a journal sink, its ``elapsed_s`` (positional argument 1) is not."""

from repro.experiments.runner import RunLedger, monotonic_clock


def bad_payload(ledger: RunLedger):
    ledger.record(0, 1.0, monotonic_clock())


def good_elapsed(ledger: RunLedger, index, payload, t0):
    ledger.record(index, monotonic_clock() - t0, payload)


def good_elapsed_keyword(ledger: RunLedger, index, payload, t0):
    ledger.record(index, elapsed_s=monotonic_clock() - t0, payload=payload)
