"""Fig. 14 — software-mitigation throughput overhead."""

from repro.experiments import fig14_mitigation
from repro.experiments.runner import execute_plan


def test_bench_fig14_mitigation(once):
    result = once(execute_plan, fig14_mitigation.trial_plan())
    print()
    print(fig14_mitigation.report(result))
    # Paper: up to 15.7% (native) / 17.9% (DTO) at 256 B, fading upward.
    assert 10 <= result.max_overhead("dsa") <= 25
    assert 10 <= result.max_overhead("dto") <= 25
    assert result.overhead_shrinks_with_size
