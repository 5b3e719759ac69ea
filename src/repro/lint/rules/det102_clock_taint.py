"""DET102 — wall-clock-derived values flowing into durable artifacts.

DET002 polices *where* the host clock may be read
(``repro.experiments.runner`` only).  That is necessary but not
sufficient: the injectable ``wall_clock()``/``monotonic_clock()``
helpers are legitimately called all over the orchestration layer, and
nothing per-file stops one of those values from flowing — through any
number of helpers — into an artifact that must be a pure function of
``(config, seed)``: a trial key, a journal payload, a dataset, the fuzz
corpus state.  One such leak and resume-equals-uninterrupted (and the
serial≡parallel byte-identity) silently breaks in production while
tests, which inject frozen clocks, stay green.

Flagged: a call site whose clock-tainted argument reaches one of the
sink families below, resolved through the whole-program taint engine.
Sanctioned clock uses stay out by construction: journal ``elapsed_s``
is exempt (the differential layer strips it) wherever it is passed,
and the manifest's own timestamping lives in the sink-owning module
(``repro.experiments.checkpoint``), which is exempt for the atomic-write
sinks it implements.

**Fix:** keep host time in telemetry fields that the equivalence layer
already normalizes, or drop it; never fold it into keys, payloads,
datasets, or corpus state.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lint.checker import Finding, ProjectChecker
from repro.lint.taint import ProjectAnalysis


@dataclass(frozen=True)
class SinkSpec:
    """One family of durable-artifact sinks."""

    suffixes: tuple[str, ...]  # dotted-callee suffixes
    what: str  # human label for messages
    #: keyword arguments that legitimately carry host time.
    exempt_kwargs: frozenset[str] = frozenset()
    #: positional indices that legitimately carry host time.
    exempt_args: frozenset[int] = frozenset()
    #: highest positional index checked (exclusive); None = all.
    max_args: int | None = None
    #: calling modules exempt because they own the sink's sanctioned
    #: timestamping.
    exempt_modules: frozenset[str] = frozenset()


#: The sink catalog: trial payloads, checkpoint journals, manifests,
#: datasets, fuzz corpus state, trial keys/seeds.
SINKS: tuple[SinkSpec, ...] = (
    SinkSpec(
        suffixes=("record_success", "record_failure_info"),
        what="the checkpoint journal",
        exempt_kwargs=frozenset({"elapsed_s"}),
        max_args=3,
    ),
    SinkSpec(
        # RunLedger.record(index, elapsed_s, payload, error)
        suffixes=("ledger.record",),
        what="the checkpoint journal",
        exempt_kwargs=frozenset({"elapsed_s"}),
        exempt_args=frozenset({1}),
    ),
    SinkSpec(
        suffixes=("TrialSpec",),
        what="a trial key/payload",
    ),
    SinkSpec(
        suffixes=("spawn_trial_seed",),
        what="a trial seed",
    ),
    SinkSpec(
        suffixes=("TraceDataset", "TraceDataset.save", "TraceDataset.merge",
                  "TraceDataset.merge_many"),
        what="a dataset artifact",
    ),
    SinkSpec(
        suffixes=(
            "atomic_write_json",
            "atomic_write_text",
            "atomic_write_bytes",
        ),
        what="a durable checkpoint artifact",
        exempt_modules=frozenset({"repro.experiments.checkpoint"}),
    ),
    SinkSpec(
        suffixes=("_save_state", "save_state"),
        what="the fuzz corpus state",
    ),
    SinkSpec(
        suffixes=("config_hash",),
        what="the config hash resume validates",
    ),
)


def _match(callee: str) -> SinkSpec | None:
    for spec in SINKS:
        for suffix in spec.suffixes:
            if callee == suffix or callee.endswith("." + suffix):
                return spec
    return None


class ClockTaintChecker(ProjectChecker):
    """Flags clock-derived values reaching reproducibility sinks."""

    rule = "DET102"
    title = "wall-clock taint flows into a durable artifact"

    def check(self, analysis: ProjectAnalysis) -> list[Finding]:
        for qname, fn in sorted(analysis.functions.items()):
            rel = analysis.function_rel.get(qname, "")
            module = analysis.module_of(qname)
            for call in fn.calls:
                spec = _match(call.callee)
                if spec is None or module in spec.exempt_modules:
                    continue
                tainted: list[str] = []
                checked = (
                    call.args
                    if spec.max_args is None
                    else call.args[: spec.max_args]
                )
                for index, atoms in enumerate(checked):
                    if index in spec.exempt_args:
                        continue
                    if "clock" in analysis.resolve_atoms(qname, atoms):
                        tainted.append(f"argument {index + 1}")
                for kw_name, atoms in sorted(call.keywords.items()):
                    if kw_name in spec.exempt_kwargs:
                        continue
                    if "clock" in analysis.resolve_atoms(qname, atoms):
                        tainted.append(f"`{kw_name}=`")
                if tainted:
                    self.report(
                        rel,
                        call.line,
                        call.col,
                        f"host-clock-derived value ({', '.join(tainted)})"
                        f" flows into {spec.what} via `{call.callee}`;"
                        " artifacts must be pure functions of"
                        " (config, seed) — keep host time in normalized"
                        " telemetry fields",
                    )
        return self.findings
