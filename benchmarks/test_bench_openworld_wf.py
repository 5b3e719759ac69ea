"""Extension: open-world website fingerprinting."""

from repro.experiments import openworld_wf
from repro.experiments.runner import execute_plan


def test_bench_openworld_wf(once):
    result = once(execute_plan, openworld_wf.trial_plan())
    print()
    print(openworld_wf.report(result))
    # Better than coin-flipping on both axes simultaneously.
    assert result.scores.balanced > 0.6
    assert result.scores.unknown_rejection_rate > 0.5
    assert result.closed_world_accuracy > 0.6
