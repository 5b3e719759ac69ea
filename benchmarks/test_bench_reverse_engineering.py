"""RE-1/2/3 — the Section IV reverse-engineering suite."""

from repro.experiments import reverse_engineering
from repro.experiments.runner import execute_plan


def test_bench_reverse_engineering(once):
    results = once(execute_plan, reverse_engineering.trial_plan())
    print()
    print(reverse_engineering.report(results))
    assert results.all_reproduced
