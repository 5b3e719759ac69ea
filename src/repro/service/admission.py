"""Admission control: the service's front door.

Three gates run in order, each with a *typed* refusal
(:class:`~repro.errors.AdmissionRejected` carrying a closed-set
``reason``), so every turned-away session is accounted by cause rather
than silently dropped:

1. the overload controller's circuit breaker (``circuit-open``) and
   graceful drain (``draining``) — checked by the caller before the
   bucket is even consulted;
2. the service-wide token bucket (``rate-limit``) — a sustained
   sessions-per-megacycle rate with a burst allowance, replenished on
   device time;
3. the tenant's isolation budget (``tenant-quota``) — remaining device
   cycles and an in-flight cap, so one stampeding tenant cannot starve
   the fleet for everyone else.

The ``service_admission_flap`` chaos site fires here: a spuriously
refused admissible session surfaces as ``reason="admission-flap"`` and
is acknowledged to the injector — flakiness is *handled* by being
typed, counted, and visible to the retrying load generator.

Every token and budget movement is narrated to the
``ServiceStateChecker``: tokens and budgets may brush zero but never go
negative, which the Hypothesis property suite exercises directly on
:class:`TokenBucket` / :class:`TenantBudget`.
"""

from __future__ import annotations

from repro.errors import AdmissionRejected, ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultSite
from repro.invariants.service import ServiceStateChecker
from repro.service.config import ServiceConfig, TenantPolicy
from repro.service.session import SessionSpec


class TokenBucket:
    """A deterministic token bucket on the device clock.

    ``rate_per_mcycle`` tokens accrue per 10⁶ device cycles up to
    ``burst``; :meth:`take` either consumes one token or reports how
    many cycles until one will be available (the ``retry_after_cycles``
    hint carried by the rejection).
    """

    def __init__(self, rate_per_mcycle: float, burst: int) -> None:
        if rate_per_mcycle <= 0 or burst < 1:
            raise ConfigurationError("token bucket needs positive rate/burst")
        self._rate = rate_per_mcycle / 1_000_000.0
        self._burst = float(burst)
        self._tokens = float(burst)
        self._stamp = 0

    def tokens(self, now: int) -> float:
        """Tokens available at device time *now* (never negative)."""
        self._refill(now)
        return self._tokens

    def _refill(self, now: int) -> None:
        if now > self._stamp:
            self._tokens = min(
                self._burst, self._tokens + (now - self._stamp) * self._rate
            )
            self._stamp = now

    def take(self, now: int) -> tuple[bool, int]:
        """Consume one token at *now*.

        Returns ``(True, 0)`` on success, else ``(False, retry_after)``
        with the cycle count after which a token will have accrued.
        """
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True, 0
        deficit = 1.0 - self._tokens
        return False, int(deficit / self._rate) + 1


class TenantBudget:
    """One tenant's isolation ledger: device cycles and in-flight slots.

    Both counters are clamped-by-construction: a charge larger than the
    remainder raises instead of going negative, and releases of slots
    never held trip the narrating checker.
    """

    def __init__(self, tenant: str, policy: TenantPolicy) -> None:
        self.tenant = tenant
        self.policy = policy
        self.remaining_cycles = policy.device_cycle_quota
        self.in_flight = 0
        self.cycles_charged = 0

    def can_admit(self) -> bool:
        return (
            self.in_flight < self.policy.max_in_flight
            and self.remaining_cycles > 0
        )

    def admit(self) -> None:
        if self.in_flight >= self.policy.max_in_flight:
            raise AdmissionRejected(
                tenant=self.tenant, reason="tenant-quota"
            )
        self.in_flight += 1

    def release(self) -> None:
        if self.in_flight <= 0:
            raise ConfigurationError(
                f"tenant {self.tenant}: release without admit"
            )
        self.in_flight -= 1

    def charge(self, cycles: int) -> None:
        """Deduct *cycles* of device time (clamped at the quota floor).

        Over-quota usage is legal mid-session — the session that spends
        the last cycles finishes its round — but the budget floors at
        zero so the invariant "no budget ever goes negative" holds, and
        the *next* admission for this tenant is refused.
        """
        spent = min(max(0, int(cycles)), self.remaining_cycles)
        self.remaining_cycles -= spent
        self.cycles_charged += int(cycles)


class AdmissionController:
    """Applies the bucket and tenant gates, narrating every movement."""

    def __init__(
        self,
        config: ServiceConfig,
        checker: ServiceStateChecker,
        injector: FaultInjector | None = None,
    ) -> None:
        self._config = config
        self._checker = checker
        self._injector = injector
        self.bucket = TokenBucket(
            config.admission_rate_per_mcycle, config.admission_burst
        )
        self._tenants: dict[str, TenantBudget] = {}
        self.rejected_by_reason: dict[str, int] = {}

    def tenant(self, name: str) -> TenantBudget:
        budget = self._tenants.get(name)
        if budget is None:
            budget = TenantBudget(name, self._config.tenant_policy)
            self._tenants[name] = budget
        return budget

    def _reject(
        self,
        spec: SessionSpec,
        reason: str,
        retry_after: int | None = None,
    ) -> AdmissionRejected:
        self.rejected_by_reason[reason] = (
            self.rejected_by_reason.get(reason, 0) + 1
        )
        return AdmissionRejected(
            f"session {spec.session_id} refused: {reason}",
            tenant=spec.tenant,
            reason=reason,
            retry_after_cycles=retry_after,
        )

    def admit(
        self, spec: SessionSpec, now: int, resumed: bool = False
    ) -> TenantBudget:
        """Admit *spec* or raise the typed rejection.

        On success the tenant's in-flight slot is held — the supervisor
        releases it on the session's terminal transition.  A *resumed*
        session (re-entering from a drain checkpoint) already paid the
        token bucket in its first life, so it skips the bucket and the
        flap site and only re-takes its tenant slot — which cannot
        overflow, because resumed sessions re-enter before any fresh
        offer and their count is bounded by the previous run's in-flight.
        """
        if resumed:
            budget = self.tenant(spec.tenant)
            budget.admit()
            self._note_tenant(budget)
            return budget
        if self._injector is not None:
            event = self._injector.fire(
                FaultSite.SERVICE_ADMISSION_FLAP, timestamp=now
            )
            if event is not None:
                self._injector.acknowledge(
                    event, "typed-rejection-surfaced-to-loadgen"
                )
                raise self._reject(spec, "admission-flap")
        ok, retry_after = self.bucket.take(now)
        self._checker.note_tokens(self.bucket.tokens(now))
        if not ok:
            raise self._reject(spec, "rate-limit", retry_after)
        budget = self.tenant(spec.tenant)
        if not budget.can_admit():
            raise self._reject(spec, "tenant-quota")
        budget.admit()
        self._note_tenant(budget)
        return budget

    def release(self, spec: SessionSpec, cycles_used: int) -> None:
        """Return the tenant slot and charge the session's device time."""
        budget = self.tenant(spec.tenant)
        budget.charge(cycles_used)
        budget.release()
        self._note_tenant(budget)

    def _note_tenant(self, budget: TenantBudget) -> None:
        self._checker.note_tenant(
            budget.tenant,
            budget.remaining_cycles,
            budget.in_flight,
            budget.policy.max_in_flight,
        )
