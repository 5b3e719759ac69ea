"""Fig. 4 — DevTLB hit/miss latency across the four environments."""

from repro.experiments import fig04_latency
from repro.experiments.runner import execute_plan
from repro.hw.noise import Environment


def test_bench_fig04_latency(once):
    result = once(execute_plan, fig04_latency.trial_plan(samples=300))
    print()
    print(fig04_latency.report(result))
    local = result.for_environment(Environment.LOCAL)
    assert 400 <= local.hit_mean <= 600  # paper: ~500 cycles
    assert local.miss_mean > 1000  # paper: >1000 cycles
    assert all(row.band_threshold_works for row in result.environments)
    assert 60 <= result.cloud_noise_shift <= 120  # paper: ~89 cycles
