"""Table IV — comparison against prior cross-core/cross-VM attacks."""

from repro.experiments import table4_comparison
from repro.experiments.runner import execute_plan


def test_bench_table4_comparison(once):
    result = once(execute_plan, table4_comparison.trial_plan())
    print()
    print(table4_comparison.report(result))
    assert result.devtlb_fastest_covert
    ours = result.ours
    assert all(r.survives_pasid == "yes" for r in ours)
