"""The always-on attack session service (``python -m repro.service``).

Every other entry point in this repository is a batch ``run_experiment``
invocation; this package is the long-lived process the ROADMAP's
"heavy traffic" north star asks for.  It multiplexes thousands to 10⁵
concurrent covert-channel/probe *sessions* — each an async state
machine ``ADMITTED → CALIBRATING → ACTIVE → DRAINING → CLOSED`` — onto
a fleet of simulated :class:`~repro.virt.system.CloudSystem` devices.

The robustness layer is the headline, not the attacks themselves:

* :mod:`repro.service.loop` — a deterministic *device-time* coroutine
  loop (no asyncio): sessions park on simulated-cycle wakeups, never
  the host clock, so an identical seed replays an identical run;
* :mod:`repro.service.admission` — token-bucket admission with typed
  rejection (:class:`~repro.errors.AdmissionRejected`) and per-tenant
  isolation budgets;
* :mod:`repro.service.session` — per-session deadline/retry budgets
  reusing the :class:`~repro.core.calibration.CalibrationPolicy`
  bounded-retry machinery;
* :mod:`repro.service.devices` — lane custody over the device fleet,
  with quarantine-and-rebuild on revocation;
* :mod:`repro.service.controller` — the EWMA overload controller
  (degrade cadence → shed lowest priority → circuit-break admissions);
* :mod:`repro.service.app` — supervision, exact exit-path accounting,
  SIGTERM graceful drain via the atomic checkpoint machinery;
* :mod:`repro.service.loadgen` — the open-loop load generator and its
  chaos lanes (session kill, tenant stampede, device fault sites).

Every state transition, lane hand-off, and budget movement is narrated
to :class:`repro.invariants.ServiceStateChecker`; the final audit
proves the conservation law ``offered + resumed == rejected + completed
+ shed + failed + quarantined + checkpointed`` held exactly.

See ``docs/service.md`` for the state machine and drain semantics.
"""

from repro.service.admission import AdmissionController, TokenBucket
from repro.service.app import AttackService, ServiceReport
from repro.service.config import ServiceConfig
from repro.service.controller import OverloadController
from repro.service.devices import DeviceFleet, DeviceLane
from repro.service.loadgen import LoadConfig, build_schedule
from repro.service.loop import (
    BoundedQueue,
    DeviceTimeLoop,
    VirtualEvent,
    VirtualLock,
)
from repro.service.session import AttackSession, SessionSpec

__all__ = [
    "AdmissionController",
    "AttackService",
    "AttackSession",
    "BoundedQueue",
    "DeviceFleet",
    "DeviceLane",
    "DeviceTimeLoop",
    "LoadConfig",
    "OverloadController",
    "ServiceConfig",
    "ServiceReport",
    "SessionSpec",
    "TokenBucket",
    "VirtualEvent",
    "VirtualLock",
    "build_schedule",
]
