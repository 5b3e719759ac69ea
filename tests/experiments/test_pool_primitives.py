"""Unit coverage for the pool's building blocks: worker-message
decoding, respawn backoff, the poison ledger, and the interrupt plumbing the parent relies on to drain cleanly.
"""

import os
import pickle
import signal

import pytest

from repro.experiments.pool import PoolProtocolError, _decode
from repro.experiments.supervisor import (
    PoisonLedger,
    PoolConfig,
    RespawnBackoff,
    interrupt_shield,
    sigterm_as_interrupt,
)


class TestDecode:
    def test_roundtrip(self):
        message = ("pool-trial", 0, 1, 2, "fig09/2", True, {"ber": 0.0})
        assert _decode(pickle.dumps(message, protocol=4)) == message

    def test_reversed_pickle_is_a_protocol_error(self):
        """The POOL_RESULT_CORRUPT effect never unpickles."""
        blob = pickle.dumps(("pool-trial", 0, 1), protocol=4)
        with pytest.raises(PoolProtocolError, match="unpicklable frame"):
            _decode(blob[::-1])


class TestRespawnBackoff:
    def test_delays_double_up_to_the_cap(self):
        backoff = RespawnBackoff(base_s=0.05, cap_s=0.4)
        delays = [backoff.next_delay() for _ in range(6)]
        assert delays == [0.05, 0.1, 0.2, 0.4, 0.4, 0.4]

    def test_reset_returns_to_fast_respawns(self):
        backoff = RespawnBackoff(base_s=0.05, cap_s=0.4)
        for _ in range(4):
            backoff.next_delay()
        backoff.reset()
        assert backoff.next_delay() == 0.05


class TestPoisonLedger:
    def test_first_strike_is_forgiven(self):
        ledger = PoisonLedger(threshold=2)
        assert not ledger.strike("fig09/0", "worker died")
        assert not ledger.is_poisoned("fig09/0")
        assert ledger.struck == ("fig09/0",)

    def test_threshold_strikes_quarantine(self):
        ledger = PoisonLedger(threshold=2)
        ledger.strike("fig09/0", "worker died")
        assert ledger.strike("fig09/0", "worker died again")
        assert ledger.poisoned == ("fig09/0",)
        assert ledger.reasons["fig09/0"] == [
            "worker died", "worker died again",
        ]

    def test_threshold_below_one_rejected(self):
        with pytest.raises(ValueError):
            PoisonLedger(threshold=0)


class TestPoolConfig:
    def test_hang_deadline_scales_with_longest_trial(self):
        config = PoolConfig(hang_floor_s=30.0, hang_factor=3.0)
        assert config.hang_deadline_s(1.0) == 30.0
        assert config.hang_deadline_s(20.0) == 60.0


class TestInterruptPlumbing:
    def test_shield_latches_sigint_without_raising(self):
        with interrupt_shield() as latch:
            os.kill(os.getpid(), signal.SIGINT)
            # the handler runs synchronously on the main thread
            assert latch.interrupted
            assert latch.count == 1
            assert signal.SIGINT in latch.signals

    def test_shield_latches_sigterm_too(self):
        with interrupt_shield() as latch:
            os.kill(os.getpid(), signal.SIGTERM)
            assert latch.interrupted

    def test_sigterm_as_interrupt_raises_keyboard_interrupt(self):
        with pytest.raises(KeyboardInterrupt):
            with sigterm_as_interrupt():
                os.kill(os.getpid(), signal.SIGTERM)

    def test_handlers_are_restored_after_the_shield(self):
        before = (
            signal.getsignal(signal.SIGINT),
            signal.getsignal(signal.SIGTERM),
        )
        with interrupt_shield():
            pass
        after = (
            signal.getsignal(signal.SIGINT),
            signal.getsignal(signal.SIGTERM),
        )
        assert before == after
