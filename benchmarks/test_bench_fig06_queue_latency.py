"""Fig. 6 — submission/completion latency and the DMWr ZF threshold."""

from repro.experiments import fig06_queue_latency
from repro.experiments.runner import execute_plan


def test_bench_fig06_queue_latency(once):
    result = once(execute_plan, fig06_queue_latency.trial_plan(repeats=15))
    print()
    print(fig06_queue_latency.report(result))
    assert result.submission_is_flat  # paper: constant ~700 cycles
    assert result.completion_is_monotone
    assert result.contention_threshold == 1 << 25  # paper: 2^25 bytes
