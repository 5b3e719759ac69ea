"""Fig. 10 — per-site DevTLB miss traces."""

from repro.experiments import fig10_wf_traces
from repro.experiments.runner import execute_plan


def test_bench_fig10_wf_traces(once):
    result = once(execute_plan, fig10_wf_traces.trial_plan())
    print()
    print(fig10_wf_traces.report(result))
    assert result.traces_have_activity
    assert result.signatures_differ
    assert result.slots == 250  # the paper's 250-slot trace
