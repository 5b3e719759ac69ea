# repro-lint-fixture-module: repro.experiments.fixture_sim002
"""SIM002 positive fixture: guarded-field mutations from a non-owner."""


def tamper_occupancy(wq) -> None:
    # _outstanding belongs to repro.dsa.wq, not this module.
    wq._outstanding -= 1


def forge_completion(ticket, record) -> None:
    ticket.record = record


def rewind_clock(clock, cycles: int) -> None:
    clock._now = clock._now - cycles


def evict_by_hand(devtlb) -> None:
    devtlb._entries.popitem()


def scrub_queue(wq) -> None:
    wq._entries.clear()


def hand_wired_monitor(device, monitor) -> None:
    device.invariant_monitor = monitor


def force_replay_gate(device) -> None:
    device._wake = float("inf")


class UnrelatedLedger:
    """A non-owner class declaring a same-named private attribute."""

    def __init__(self) -> None:
        # Fresh empty value on self reads as a declaration, not a
        # mutation of monitored state (cf. a journal keyed by trial).
        # Deliberately NOT in expected.json.
        self._entries = {}
        self.invariant_monitor = None  # declaration idiom: allowed

    def _wake(self, fut) -> None:
        fut.set_result(None)

    def resume(self, fut) -> None:
        # Calling a method named like a guarded field writes nothing
        # (cf. DeviceTimeLoop._wake).  Deliberately NOT in expected.json.
        self._wake(fut)
