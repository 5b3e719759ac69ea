"""Fig. 11 / Section VI-B — website fingerprinting classification.

Reduced scale (10 sites x 10 visits vs. the paper's 100 x 200); the
pipeline is identical and scales linearly via the ``trial_plan`` parameters.
"""

from repro.experiments import fig11_wf_classification
from repro.experiments.runner import execute_plan


def test_bench_fig11_wf_classification(once):
    result = once(execute_plan, fig11_wf_classification.trial_plan())
    print()
    print(fig11_wf_classification.report(result))
    # Paper: 96.5% on a 15-site subset (chance here is 10%).
    assert result.bilstm_accuracy >= 0.75
