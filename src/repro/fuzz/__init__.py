"""Coverage-guided device-interface fuzzer for the DSA/ATS model.

A seeded fuzzing campaign over the descriptor/portal/ATS surface: the
generator (:mod:`repro.fuzz.gen`) produces valid-ish and malformed
operation streams, a coverage map that subscribes to the invariant
monitor's events (:mod:`repro.fuzz.coverage`) steers mutation toward
unexplored behavior,
and the oracles (:mod:`repro.fuzz.executor`) judge every case against
the invariant monitor, the fault handled-or-detected contract, and the
typed-exception catalog.  Findings shrink to minimal reproducers and the
whole campaign is crash-safe and resumable (:mod:`repro.fuzz.campaign`),
ending in a deterministic report (:mod:`repro.fuzz.report`).

Run via ``python -m repro.fuzz`` or ``scripts/check.sh full``; see
``docs/fuzzing.md``.
"""

from repro.fuzz.campaign import (
    EXIT_FINDINGS,
    CampaignResult,
    FuzzConfig,
    run_campaign,
)
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.executor import CaseResult, Finding, execute_case
from repro.fuzz.gen import derive_rng, generate_case, generate_topology, mutate

__all__ = [
    "EXIT_FINDINGS",
    "CampaignResult",
    "CaseResult",
    "CoverageMap",
    "Finding",
    "FuzzConfig",
    "derive_rng",
    "execute_case",
    "generate_case",
    "generate_topology",
    "mutate",
    "run_campaign",
]
