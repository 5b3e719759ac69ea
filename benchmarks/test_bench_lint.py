"""Wall-clock cost of the whole-program linter on this repository.

Times a **cold** run (no summary cache: every file parsed, every
per-file rule walked, summaries extracted, taint fixpoint) and a
**warm** re-lint (every summary served from the SHA-256 cache; only the
whole-program phase re-runs) over ``src/``, in-process, and records
both in ``BENCH_lint.json`` at the repo root (override the path with
``BENCH_LINT_PATH``).

Gates:

* cold whole-repo analysis finishes within :data:`COLD_BUDGET_S` —
  the linter must stay cheap enough to run as a preflight everywhere;
* the warm re-lint is at least :data:`WARM_SPEEDUP_FLOOR`× faster than
  cold — the summary cache is the whole point of the two-phase design,
  and a regression here (e.g. a rule that sneaks an AST walk into
  phase 2) would silently turn every preflight into a cold run.
"""

import json
import os
import time
from pathlib import Path

from repro.lint import LintEngine

REPO_ROOT = Path(__file__).resolve().parent.parent
COLD_BUDGET_S = 30.0
WARM_SPEEDUP_FLOOR = 5.0

BENCH_PATH = Path(
    os.environ.get("BENCH_LINT_PATH", REPO_ROOT / "BENCH_lint.json")
)


def _run(cache_path):
    engine = LintEngine(root=REPO_ROOT, cache_path=cache_path)
    start = time.perf_counter()  # repro-lint: ignore[DET002]
    report = engine.run(["src"])
    elapsed = time.perf_counter() - start  # repro-lint: ignore[DET002]
    return elapsed, report


def test_cold_and_warm_lint_budgets(tmp_path):
    cache_path = tmp_path / "lint-cache.json"

    cold_s, cold = _run(cache_path)
    assert cold.parsed == cold.files_checked and cold.cache_hits == 0
    assert cold.all_findings == [], [
        f.format_text() for f in cold.all_findings
    ]

    warm_s, warm = _run(cache_path)
    assert warm.cache_hits == warm.files_checked and warm.parsed == 0
    assert warm.all_findings == []

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    record = {
        "files": cold.files_checked,
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
        "warm_speedup": round(speedup, 2),
        "cold_budget_s": COLD_BUDGET_S,
        "warm_speedup_floor": WARM_SPEEDUP_FLOOR,
        "suppressed": cold.suppressed,
    }
    BENCH_PATH.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )

    assert cold_s <= COLD_BUDGET_S, (
        f"cold whole-repo lint took {cold_s:.1f}s (budget {COLD_BUDGET_S}s)"
    )
    assert speedup >= WARM_SPEEDUP_FLOOR, (
        f"warm re-lint only {speedup:.1f}x faster than cold"
        f" (floor {WARM_SPEEDUP_FLOOR}x): the summary cache is not"
        " carrying phase 1"
    )
