"""Admission-control unit tests and the token/queue property suite.

The Hypothesis sections pin the two algebraic invariants the
``ServiceStateChecker`` audits at runtime: conservation (tokens taken
never exceed tokens offered; every item put into a bounded queue comes
out exactly once) and non-negativity (no bucket or budget ever dips
below zero, under any interleaving of takes, refills, charges and
releases).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AdmissionRejected, ConfigurationError
from repro.faults import FaultPlan, FaultSite
from repro.invariants.service import ServiceStateChecker
from repro.service.admission import (
    AdmissionController,
    TenantBudget,
    TokenBucket,
)
from repro.service.config import ServiceConfig, TenantPolicy
from repro.service.loop import BoundedQueue, DeviceTimeLoop
from repro.service.session import SessionSpec


def _spec(sid="s0", tenant="t0", **kwargs):
    kwargs.setdefault("priority", 1)
    kwargs.setdefault("arrival_cycles", 0)
    return SessionSpec(session_id=sid, tenant=tenant, **kwargs)


def _controller(config=None, injector=None):
    config = config or ServiceConfig(seed=1, lanes=1)
    return AdmissionController(config, ServiceStateChecker(), injector)


class TestTokenBucket:
    def test_burst_then_rate_limit(self):
        bucket = TokenBucket(rate_per_mcycle=1.0, burst=2)
        assert bucket.take(0) == (True, 0)
        assert bucket.take(0) == (True, 0)
        ok, retry_after = bucket.take(0)
        assert not ok and retry_after > 0

    def test_retry_after_is_honest(self):
        bucket = TokenBucket(rate_per_mcycle=1.0, burst=1)
        bucket.take(0)
        ok, retry_after = bucket.take(0)
        assert not ok
        # Waiting exactly the hinted cycles yields a token.
        assert bucket.take(retry_after) == (True, 0)

    def test_refill_clamps_at_burst(self):
        bucket = TokenBucket(rate_per_mcycle=1000.0, burst=4)
        assert bucket.tokens(10**9) == 4.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate_per_mcycle=0.0, burst=1)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate_per_mcycle=1.0, burst=0)


class TestTenantBudget:
    def test_in_flight_cap_is_typed(self):
        budget = TenantBudget("t0", TenantPolicy(max_in_flight=1))
        budget.admit()
        with pytest.raises(AdmissionRejected) as info:
            budget.admit()
        assert info.value.reason == "tenant-quota"

    def test_charge_floors_at_zero(self):
        budget = TenantBudget(
            "t0", TenantPolicy(device_cycle_quota=100)
        )
        budget.admit()
        budget.charge(250)  # over-quota final round is legal
        assert budget.remaining_cycles == 0
        assert budget.cycles_charged == 250
        assert not budget.can_admit()  # but the next admission is refused

    def test_release_without_admit_raises(self):
        budget = TenantBudget("t0", TenantPolicy())
        with pytest.raises(ConfigurationError, match="release without"):
            budget.release()


class TestAdmissionController:
    def test_rate_limit_rejection_carries_retry_hint(self):
        controller = _controller(
            ServiceConfig(
                seed=1, lanes=1,
                admission_rate_per_mcycle=1.0, admission_burst=1,
            )
        )
        controller.admit(_spec("s0"), now=0)
        with pytest.raises(AdmissionRejected) as info:
            controller.admit(_spec("s1"), now=0)
        assert info.value.reason == "rate-limit"
        assert info.value.retry_after_cycles > 0
        assert controller.rejected_by_reason == {"rate-limit": 1}

    def test_tenant_quota_rejection(self):
        controller = _controller(
            ServiceConfig(
                seed=1, lanes=1,
                tenant_policy=TenantPolicy(max_in_flight=1),
            )
        )
        controller.admit(_spec("s0", tenant="t0"), now=0)
        with pytest.raises(AdmissionRejected) as info:
            controller.admit(_spec("s1", tenant="t0"), now=0)
        assert info.value.reason == "tenant-quota"
        # Another tenant is unaffected: isolation, not global refusal.
        controller.admit(_spec("s2", tenant="t1"), now=0)

    def test_release_returns_slot_and_charges_cycles(self):
        controller = _controller(
            ServiceConfig(
                seed=1, lanes=1,
                tenant_policy=TenantPolicy(max_in_flight=1),
            )
        )
        spec = _spec("s0")
        controller.admit(spec, now=0)
        controller.release(spec, cycles_used=1_000)
        assert controller.tenant("t0").cycles_charged == 1_000
        controller.admit(_spec("s1"), now=10**6)  # slot is free again

    def test_admission_flap_fault_is_typed_and_acknowledged(self):
        injector = (
            FaultPlan(seed=3)
            .with_site(FaultSite.SERVICE_ADMISSION_FLAP, probability=1.0)
            .build_injector()
        )
        injector.register_site(
            FaultSite.SERVICE_ADMISSION_FLAP, "repro.service.admission"
        )
        controller = _controller(injector=injector)
        with pytest.raises(AdmissionRejected) as info:
            controller.admit(_spec("s0"), now=0)
        assert info.value.reason == "admission-flap"
        assert injector.total_fired == 1
        assert not injector.unacknowledged()

    def test_resumed_sessions_skip_bucket_and_flap(self):
        injector = (
            FaultPlan(seed=3)
            .with_site(FaultSite.SERVICE_ADMISSION_FLAP, probability=1.0)
            .build_injector()
        )
        injector.register_site(
            FaultSite.SERVICE_ADMISSION_FLAP, "repro.service.admission"
        )
        controller = _controller(
            ServiceConfig(
                seed=1, lanes=1,
                admission_rate_per_mcycle=1.0, admission_burst=1,
            ),
            injector=injector,
        )
        # A fresh offer meets the armed flap site every time...
        with pytest.raises(AdmissionRejected) as info:
            controller.admit(_spec("s0"), now=0)
        assert info.value.reason == "admission-flap"
        fired_before = injector.total_fired
        # ...but a resumed re-entry skips bucket AND flap: it already
        # paid both in its first life.  Only the tenant slot is taken.
        budget = controller.admit(_spec("s1"), now=0, resumed=True)
        assert budget.in_flight == 1
        assert injector.total_fired == fired_before


# ----------------------------------------------------------------------
# Property suites
# ----------------------------------------------------------------------
class TestTokenBucketProperties:
    @given(
        st.integers(min_value=1, max_value=2000),  # rate per mcycle
        st.integers(min_value=1, max_value=64),  # burst
        st.lists(
            st.integers(min_value=0, max_value=200_000),
            min_size=1,
            max_size=200,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_tokens_never_negative_and_takes_conserved(
        self, rate, burst, gaps
    ):
        bucket = TokenBucket(rate_per_mcycle=float(rate), burst=burst)
        now = 0
        granted = 0
        for gap in gaps:
            now += gap
            ok, retry_after = bucket.take(now)
            granted += int(ok)
            assert bucket.tokens(now) >= 0.0
            assert bucket.tokens(now) <= float(burst)
            if not ok:
                assert retry_after > 0
        # Conservation: grants never exceed burst + everything accrued.
        accrued = now * (rate / 1_000_000.0)
        assert granted <= burst + accrued + 1e-9

    @given(
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_retry_after_hint_always_yields_a_token(self, rate, burst, now):
        bucket = TokenBucket(rate_per_mcycle=float(rate), burst=burst)
        for _ in range(burst):
            bucket.take(now)
        ok, retry_after = bucket.take(now)
        if not ok:
            assert bucket.take(now + retry_after) == (True, 0)


class TestTenantBudgetProperties:
    @given(
        st.integers(min_value=1, max_value=10**6),  # quota
        st.integers(min_value=1, max_value=32),  # cap
        st.lists(
            st.tuples(
                st.sampled_from(["admit", "release", "charge"]),
                st.integers(min_value=0, max_value=10**5),
            ),
            max_size=200,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_budget_never_negative_under_any_interleaving(
        self, quota, cap, ops
    ):
        budget = TenantBudget(
            "t", TenantPolicy(device_cycle_quota=quota, max_in_flight=cap)
        )
        for op, arg in ops:
            if op == "admit":
                try:
                    budget.admit()
                except AdmissionRejected:
                    pass
            elif op == "release":
                if budget.in_flight > 0:
                    budget.release()
            else:
                budget.charge(arg)
            assert 0 <= budget.in_flight <= cap
            assert budget.remaining_cycles >= 0


class TestBoundedQueueProperties:
    @given(
        st.integers(min_value=1, max_value=16),  # capacity
        st.lists(
            st.sampled_from(["put", "get"]), min_size=1, max_size=300
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_conservation_and_bound_under_any_schedule(self, capacity, ops):
        async def main(loop):
            queue = BoundedQueue(loop, capacity)
            offered = accepted = 0
            taken = []
            for op in ops:
                if op == "put":
                    offered += 1
                    accepted += int(queue.try_put(offered))
                elif len(queue):
                    taken.append(await queue.get())
                assert 0 <= len(queue) <= capacity
            remaining = queue.drain()
            # Every accepted item leaves exactly once, in FIFO order.
            assert len(taken) + len(remaining) == accepted
            assert taken + remaining == sorted(taken + remaining)
            assert queue.high_water <= capacity
            return True

        loop = DeviceTimeLoop()
        assert loop.run(main(loop))
