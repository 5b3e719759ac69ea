"""Fig. 12 / Section VI-C — SSH keystroke detection with both primitives."""

from repro.experiments import fig12_keystrokes
from repro.experiments.runner import execute_plan


def test_bench_fig12_keystrokes(once):
    result = once(execute_plan, fig12_keystrokes.trial_plan(keystrokes=256))
    print()
    print(fig12_keystrokes.report(result))
    devtlb = result.devtlb.evaluation
    swq = result.swq.evaluation
    # Paper: DevTLB F1 92.0% / 5.29 ms; SWQ F1 98.4% / 1.21 ms.
    assert 0.85 <= devtlb.f1 <= 0.97
    assert swq.f1 >= 0.95
    assert swq.f1 > devtlb.f1
    assert 3.0 <= devtlb.timestamp_std_ms <= 8.0
    assert swq.timestamp_std_ms <= 2.0
