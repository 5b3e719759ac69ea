#!/usr/bin/env bash
# Record the parallel-scaling baseline: the fig09 covert plan at 1/2/4
# workers on the worker pool, plus the warm-vs-cold pool reuse lane,
# written to BENCH_parallel.json at the repo root.  Run on a >= 4-core
# machine to enforce the 2.5x speedup target; on fewer cores the run
# records measured numbers and bounds the pool overhead instead.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

python -m pytest benchmarks/test_bench_parallel_scaling.py \
    -o addopts="" -q -s -p no:cacheprovider "$@"

echo "== BENCH_parallel.json =="
cat BENCH_parallel.json
