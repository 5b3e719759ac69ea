"""Fig. 9 — covert-channel capacity sweep over both primitives."""

from repro.experiments import fig09_covert
from repro.experiments.runner import execute_plan


def test_bench_fig09_covert(once):
    result = once(execute_plan, fig09_covert.trial_plan(payload_bits=192, runs=2))
    print()
    print(fig09_covert.report(result))
    devtlb = result.best("devtlb")
    swq = result.best("swq")
    # Paper: 17.19 kbps @ 4.63% and 4.02 kbps @ 13.11%.
    assert devtlb.true_bps > 13_000
    assert devtlb.error_rate < 0.12
    assert swq.true_bps > 3_000
    assert result.error_grows_with_rate
