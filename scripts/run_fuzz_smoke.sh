#!/usr/bin/env bash
# Run the fuzzer's and the soak's smoke suite (docs/fuzzing.md,
# docs/invariants.md).  Both drive one case runner
# (repro.fuzz.executor.execute_case) with different workload generators.
#
# Order matters: the FUZ001 lint preflight runs first, because an
# unseeded draw anywhere in repro.fuzz silently voids every determinism
# guarantee the campaign tests then appear to certify.  After the
# fuzz-marked pytest scenarios, a bounded strict soak (8 seeds x 300
# operations) and a short seeded campaign run end to end; the campaign
# writes its report under FUZZ_DIR.
#
#   FUZZ_TRIALS=500 FUZZ_SEED=3 scripts/run_fuzz_smoke.sh
#   scripts/run_fuzz_smoke.sh -- --seed 7 --trials 1000 --fault-rate 0.01
#
# Longer soak hunts call the soak CLI directly:
#
#   PYTHONPATH=src python -m repro.invariants.soak --seed 1000 --runs 50
#
# Exit code 6 (EXIT_INVARIANT) means the soak tripped an invariant;
# exit code 7 (EXIT_FINDINGS) means the soak saw an escaped exception or
# the campaign found a contract violation.  Either way the shrunken
# reproducer and its one-command replay line are printed (campaign
# findings are also persisted under FUZZ_DIR/findings/).
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

FUZZ_SEED="${FUZZ_SEED:-0}"
FUZZ_TRIALS="${FUZZ_TRIALS:-150}"
FUZZ_DIR="${FUZZ_DIR:-fuzz-campaign}"

# Lint preflight: the fuzzer's own RNG-hygiene rule plus the
# whole-program rules — seed provenance and corpus-state taint only
# resolve with every module's summary in view, so lint all of src
# (the summary cache keeps warm re-runs fast).
python -m repro.lint src

# The fuzz-marked pytest scenarios, the long soaks included (excluded
# from tier-1).
python -m pytest tests/fuzz tests/invariants/test_soak.py -o addopts="" -m fuzz -q

# The bounded strict soak.
python -m repro.invariants.soak --seed 0 --runs 8 --operations 300

if [[ "${1:-}" == "--" ]]; then
    shift
    exec python -m repro.fuzz "$@"
fi

exec python -m repro.fuzz \
    --seed "$FUZZ_SEED" \
    --trials "$FUZZ_TRIALS" \
    --dir "$FUZZ_DIR" \
    "$@"
