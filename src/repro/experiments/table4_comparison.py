"""Table IV — comparison with prior cross-core / cross-VM attacks.

Prior-work rows carry the numbers published in the cited papers (they are
*constants* of the comparison, not measurements); the two DSAssassin rows
are filled live from this reproduction's own measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import format_table
from repro.covert.channel import run_devtlb_covert_channel, run_swq_covert_channel
from repro.experiments import fig12_keystrokes
from repro.experiments.runner import (
    ExperimentPlan,
    TrialSpec,
    execute_plan,
    require_all,
)


@dataclass(frozen=True)
class ComparisonRow:
    """One attack family's columns (blank = not reported by that work)."""

    work: str
    co_location: str
    wf_accuracy: str
    keystroke_f1: str
    keystroke_std_ms: str
    covert_capacity: str
    covert_error: str
    survives_pasid: str


#: Published numbers from the compared works (Table IV of the paper).
PRIOR_WORK = (
    ComparisonRow(
        work="IPI [51]", co_location="CPU", wf_accuracy="80.4% (F1)",
        keystroke_f1="97.9%", keystroke_std_ms="6.15",
        covert_capacity="3.45 kbps", covert_error="18.9%", survives_pasid="n/a",
    ),
    ComparisonRow(
        work="DEVIOUS [36]", co_location="Device", wf_accuracy="98.9%",
        keystroke_f1="", keystroke_std_ms="",
        covert_capacity="2.16 kbps", covert_error="2.18%", survives_pasid="no",
    ),
    ComparisonRow(
        work="(M)WAIT [65]", co_location="CPU", wf_accuracy="78%",
        keystroke_f1="", keystroke_std_ms="10.08",
        covert_capacity="697 bps", covert_error="0%", survives_pasid="n/a",
    ),
)


@dataclass(frozen=True)
class Table4Result:
    """Prior rows plus our measured rows."""

    rows: tuple[ComparisonRow, ...]

    @property
    def ours(self) -> tuple[ComparisonRow, ...]:
        """The two DSAssassin rows."""
        return tuple(r for r in self.rows if r.work.startswith("This work"))

    @property
    def devtlb_fastest_covert(self) -> bool:
        """Headline: the DevTLB channel beats every prior capacity."""
        def kbps(text: str) -> float:
            if not text:
                return 0.0
            value, unit = text.split()
            return float(value) * (1.0 if unit == "kbps" else 1e-3)

        ours = max(kbps(r.covert_capacity) for r in self.ours)
        prior = max(kbps(r.covert_capacity) for r in PRIOR_WORK)
        return ours > prior


def trial_plan(
    covert_bits: int = 192,
    keystrokes: int = 192,
    wf_accuracy_percent: float | None = None,
    seed: int = 44,
) -> ExperimentPlan:
    """One checkpointable trial per measured quantity (all required —
    a comparison table with holes in our own rows is not an artifact).

    *wf_accuracy_percent* may carry a Fig. 11 result to avoid re-running
    the (expensive) fingerprinting pipeline; by default the cell cites
    the Fig. 11 experiment.
    """
    measurements = {
        "covert/devtlb": lambda: run_devtlb_covert_channel(
            payload_bits=covert_bits, seed=seed
        ),
        "covert/swq": lambda: run_swq_covert_channel(
            payload_bits=covert_bits, seed=seed
        ),
        "keystrokes": lambda: execute_plan(
            fig12_keystrokes.trial_plan(keystrokes=keystrokes, seed=seed)
        ),
    }
    trials = tuple(TrialSpec(key=key, fn=fn) for key, fn in measurements.items())

    def finalize(results: dict) -> Table4Result:
        devtlb_covert, swq_covert, keystroke = require_all(
            results, list(measurements), "table4"
        )
        return _assemble(
            devtlb_covert, swq_covert, keystroke, wf_accuracy_percent
        )

    return ExperimentPlan(
        name="table4",
        seed=seed,
        config=dict(
            covert_bits=covert_bits,
            keystrokes=keystrokes,
            wf_accuracy_percent=wf_accuracy_percent,
            seed=seed,
        ),
        trials=trials,
        finalize=finalize,
        min_successes=len(trials),
    )


def _assemble(devtlb_covert, swq_covert, keystroke, wf_accuracy_percent):
    wf_cell = (
        f"{wf_accuracy_percent:.1f}%" if wf_accuracy_percent is not None
        else "see Fig. 11"
    )
    ours = (
        ComparisonRow(
            work="This work (DevTLB)", co_location="Device",
            wf_accuracy=wf_cell,
            keystroke_f1=f"{keystroke.devtlb.evaluation.f1 * 100:.1f}%",
            keystroke_std_ms=f"{keystroke.devtlb.evaluation.timestamp_std_ms:.2f}",
            covert_capacity=f"{devtlb_covert.true_bps / 1e3:.2f} kbps",
            covert_error=f"{devtlb_covert.error_rate * 100:.2f}%",
            survives_pasid="yes",
        ),
        ComparisonRow(
            work="This work (SWQ)", co_location="Device",
            wf_accuracy="",
            keystroke_f1=f"{keystroke.swq.evaluation.f1 * 100:.1f}%",
            keystroke_std_ms=f"{keystroke.swq.evaluation.timestamp_std_ms:.2f}",
            covert_capacity=f"{swq_covert.true_bps / 1e3:.2f} kbps",
            covert_error=f"{swq_covert.error_rate * 100:.2f}%",
            survives_pasid="yes",
        ),
    )
    return Table4Result(rows=PRIOR_WORK + ours)


def report(result: Table4Result) -> str:
    """Table IV as text."""
    rows = [
        [
            r.work, r.co_location, r.wf_accuracy or "-", r.keystroke_f1 or "-",
            r.keystroke_std_ms or "-", r.covert_capacity or "-",
            r.covert_error or "-", r.survives_pasid,
        ]
        for r in result.rows
    ]
    table = format_table(
        ["work", "co-location", "WF acc", "keystroke F1", "std (ms)",
         "covert capacity", "BER", "works under PASID"],
        rows,
    )
    return (
        "Table IV — comparison to prior attacks\n" + table +
        f"\nDevTLB channel fastest covert channel: {result.devtlb_fastest_covert}"
    )
