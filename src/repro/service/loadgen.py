"""The load generator: 10⁵-session schedules and chaos lanes.

The generator is *open-loop*: arrivals follow a seeded exponential
inter-arrival process fixed before the run starts, so offered load does
not slow down when the service pushes back — exactly the regime where
backpressure and overload shedding must prove themselves.  The schedule
is a pure function of :class:`LoadConfig` (NumPy ``default_rng``), so a
bench run is replayable bit-for-bit.

Chaos lanes (both deterministic under the load seed):

* **session kill** — a chaos coroutine on the device-time loop cancels
  random active sessions mid-round; the supervisor must account every
  victim as ``failed`` with nothing leaked;
* **tenant stampede** — a configurable fraction of the schedule arrives
  as one tenant inside one tight burst window, exercising the tenant
  in-flight cap and the fairness audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.service.session import SessionSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.app import AttackService


@dataclass(frozen=True)
class LoadConfig:
    """A replayable description of offered load."""

    sessions: int = 1_000
    tenants: int = 8
    seed: int = 7
    #: Mean of the exponential inter-arrival gap, in device cycles.
    mean_interarrival_cycles: float = 50_000.0
    priority_levels: int = 3
    probe_rounds: int = 3
    probes_per_round: int = 4
    idle_us: float = 10.0
    deadline_cycles: int = 80_000_000
    #: Tenant stampede: this fraction of sessions belongs to a single
    #: extra tenant ("stampeder") and arrives inside ``stampede_span``
    #: cycles starting at ``stampede_at_cycles``.
    stampede_fraction: float = 0.0
    stampede_at_cycles: int = 1_000_000
    stampede_span_cycles: int = 100_000
    #: Session-kill chaos: every ``kill_interval_cycles`` the killer
    #: wakes and, with ``kill_probability``, cancels one random active
    #: session.
    kill_probability: float = 0.0
    kill_interval_cycles: int = 2_000_000

    def __post_init__(self) -> None:
        if self.sessions < 0 or self.tenants < 1:
            raise ConfigurationError(
                "load needs >= 0 sessions and >= 1 tenant"
            )
        if not 0.0 <= self.stampede_fraction < 1.0:
            raise ConfigurationError("stampede_fraction must be in [0, 1)")
        if not 0.0 <= self.kill_probability <= 1.0:
            raise ConfigurationError("kill_probability must be in [0, 1]")


def build_schedule(config: LoadConfig) -> "list[SessionSpec]":
    """The full arrival schedule for *config*, sorted by arrival time."""
    rng = np.random.default_rng(config.seed)
    stampeders = int(config.sessions * config.stampede_fraction)
    organic = config.sessions - stampeders
    gaps = rng.exponential(config.mean_interarrival_cycles, size=organic)
    arrivals = np.cumsum(gaps).astype(np.int64)
    tenants = rng.integers(0, config.tenants, size=organic)
    priorities = rng.integers(0, config.priority_levels, size=organic)
    specs = [
        SessionSpec(
            session_id=f"s{index:06d}",
            tenant=f"tenant-{int(tenants[index])}",
            priority=int(priorities[index]),
            arrival_cycles=int(arrivals[index]),
            probe_rounds=config.probe_rounds,
            probes_per_round=config.probes_per_round,
            idle_us=config.idle_us,
            deadline_cycles=config.deadline_cycles,
        )
        for index in range(organic)
    ]
    if stampeders:
        burst = rng.integers(
            config.stampede_at_cycles,
            config.stampede_at_cycles + config.stampede_span_cycles,
            size=stampeders,
        )
        specs.extend(
            SessionSpec(
                session_id=f"x{index:06d}",
                tenant="stampeder",
                priority=0,
                arrival_cycles=int(burst[index]),
                probe_rounds=config.probe_rounds,
                probes_per_round=config.probes_per_round,
                idle_us=config.idle_us,
                deadline_cycles=config.deadline_cycles,
            )
            for index in range(stampeders)
        )
    specs.sort(key=lambda s: (s.arrival_cycles, s.session_id))
    return specs


def make_session_killer(config: LoadConfig):
    """A chaos coroutine factory for :meth:`AttackService.run`.

    Returns ``None`` when the kill lane is disabled, else an async
    callable the service spawns on its device-time loop.
    """
    if config.kill_probability <= 0.0:
        return None
    rng = np.random.default_rng(config.seed ^ 0xC4A0)

    async def _killer(service: "AttackService") -> None:
        while True:
            await service.loop.sleep_cycles(config.kill_interval_cycles)
            victims = service.active_session_ids
            if victims and rng.random() < config.kill_probability:
                index = int(rng.integers(len(victims)))
                service.kill_session(victims[index], reason="chaos-kill")

    return _killer

