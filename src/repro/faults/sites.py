"""The authoritative map of fault sites to their owning model modules.

Each :class:`~repro.faults.plan.FaultSite` is *owned* by exactly the
modules allowed to consult the injector at that hook point and apply the
effect.  Two consumers rely on this map being truthful:

* :meth:`~repro.faults.injector.FaultInjector.register_site` — runtime
  attachment registers every site it hooks and fails loudly on a
  duplicate or unknown site id, so a plan can never silently double-hook
  (or mis-spell) a site.
* the ``SIM001`` static-analysis rule (:mod:`repro.lint`) — a module
  that fires a site it does not own, or mutates fault-hookable device
  state directly, is a chaos-soundness bug caught before merge.

Adding a fault site therefore means touching exactly three places: the
:class:`FaultSite` enum, the owning component's hook call, and this map.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

from repro.errors import ConfigurationError
from repro.faults.plan import FaultSite

#: site -> dotted modules allowed to ``fire()`` it and apply its effect.
SITE_OWNERS: Mapping[FaultSite, tuple[str, ...]] = MappingProxyType(
    {
        FaultSite.SUBMISSION_DROP: ("repro.dsa.portal",),
        FaultSite.SUBMISSION_DELAY: ("repro.dsa.portal",),
        FaultSite.COMPLETION_ERROR: ("repro.dsa.engine",),
        FaultSite.ENGINE_STALL: ("repro.dsa.engine",),
        FaultSite.DEVTLB_INVALIDATE: ("repro.dsa.engine",),
        FaultSite.IOTLB_INVALIDATE: ("repro.dsa.engine",),
        FaultSite.WQ_DRAIN: ("repro.dsa.device",),
        FaultSite.PRS_DROP: ("repro.ats.prs",),
        FaultSite.PREEMPTION: ("repro.virt.scheduler",),
        FaultSite.POOL_WORKER_CRASH: ("repro.experiments.pool",),
        FaultSite.POOL_WORKER_STALL: ("repro.experiments.pool",),
        FaultSite.POOL_RESULT_CORRUPT: ("repro.experiments.pool",),
        FaultSite.SERVICE_SESSION_STALL: ("repro.service.session",),
        FaultSite.SERVICE_ADMISSION_FLAP: ("repro.service.admission",),
        FaultSite.SERVICE_DEVICE_REVOKE: ("repro.service.devices",),
    }
)

#: Device-state mutators that *are* fault effects: calling one outside
#: the listed modules bypasses the injector (and the fault log).  The
#: owning data structures themselves are allowed (they define the
#: method); the engine applies TLB invalidations as fault effects.
STATE_MUTATOR_OWNERS: Mapping[str, tuple[str, ...]] = MappingProxyType(
    {
        "invalidate_all": (
            "repro.dsa.engine",
            "repro.ats.devtlb",
            "repro.ats.iotlb",
            "repro.ats.agent",
        ),
    }
)

#: Sites a :meth:`FaultInjector.attach_device` hook-up registers.
DEVICE_SITES: tuple[FaultSite, ...] = (
    FaultSite.SUBMISSION_DROP,
    FaultSite.SUBMISSION_DELAY,
    FaultSite.COMPLETION_ERROR,
    FaultSite.ENGINE_STALL,
    FaultSite.DEVTLB_INVALIDATE,
    FaultSite.IOTLB_INVALIDATE,
    FaultSite.WQ_DRAIN,
    FaultSite.PRS_DROP,
)

#: Sites a :meth:`FaultInjector.attach_timeline` hook-up registers.
TIMELINE_SITES: tuple[FaultSite, ...] = (FaultSite.PREEMPTION,)

#: Executor-layer sites the persistent worker pool registers on each
#: per-worker injector (:mod:`repro.experiments.pool`).  These target
#: the *execution substrate* — the worker process, its liveness, its
#: result stream — not the simulated hardware, so no device/timeline
#: attachment registers them.
POOL_SITES: tuple[FaultSite, ...] = (
    FaultSite.POOL_WORKER_CRASH,
    FaultSite.POOL_WORKER_STALL,
    FaultSite.POOL_RESULT_CORRUPT,
)

#: Control-plane sites the always-on session service registers on its
#: own injector (:mod:`repro.service`).  Like :data:`POOL_SITES` they
#: target the orchestration substrate — admission, session scheduling,
#: lane custody — not the simulated hardware, so no device/timeline
#: attachment registers them; :meth:`AttackService` claims each site
#: for the owning service module at startup.
SERVICE_SITES: tuple[FaultSite, ...] = (
    FaultSite.SERVICE_SESSION_STALL,
    FaultSite.SERVICE_ADMISSION_FLAP,
    FaultSite.SERVICE_DEVICE_REVOKE,
)


def coerce_site(site: "FaultSite | str") -> FaultSite:
    """*site* as a :class:`FaultSite`, failing loudly on unknown ids.

    Accepts the enum member itself or its string value
    (``"submission_drop"``); anything else raises
    :class:`~repro.errors.ConfigurationError` naming the valid ids —
    never a silent no-op on a typo'd site name.
    """
    if isinstance(site, FaultSite):
        return site
    try:
        return FaultSite(site)
    except ValueError:
        valid = ", ".join(member.value for member in FaultSite)
        raise ConfigurationError(
            f"unknown fault site id {site!r}; valid sites: {valid}"
        ) from None
