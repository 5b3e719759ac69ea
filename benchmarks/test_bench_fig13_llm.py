"""Fig. 13 / Section VI-D — LLM inference fingerprinting."""

from repro.experiments import fig13_llm
from repro.experiments.runner import execute_plan


def test_bench_fig13_llm(once):
    result = once(execute_plan, fig13_llm.trial_plan(traces_per_model=8))
    print()
    print(fig13_llm.report(result))
    # Paper: 98.6% over 8 models (chance: 12.5%).
    assert result.bilstm_accuracy >= 0.85
    assert result.bilstm_accuracy >= result.baseline_accuracy
