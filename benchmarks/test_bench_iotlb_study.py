"""Extension: IOTLB capacity reverse engineering via probe latency."""

from repro.experiments import iotlb_study
from repro.experiments.runner import execute_plan


def test_bench_iotlb_study(once):
    result = once(execute_plan, iotlb_study.trial_plan())
    print()
    print(iotlb_study.report(result))
    assert result.inferred_capacity == result.configured_capacity
    assert result.knee_matches_configuration
