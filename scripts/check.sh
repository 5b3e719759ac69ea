#!/usr/bin/env bash
# Every check of this repository, in one command:
#
#   scripts/check.sh fast   repro.lint, ruff and mypy (when installed),
#                           then tier-1
#   scripts/check.sh full   fast, then every test marked `slow`, the chaos
#                           suite under the strict invariant monitor, the
#                           CLI checks (serial = pool = resume artifacts,
#                           the service lanes, a strict soak, a short
#                           fuzz campaign), the benchmark's self-tests,
#                           the invariants-overhead budget and the
#                           parallel-scaling bench
#
# `full` runs its CLI checks in one temporary directory, removed on exit,
# so it can run any number of times in a row.  Longer hunts call the
# fuzzer or the soak directly (docs/fuzzing.md).  Exit 6 from the soak
# means it tripped an invariant; exit 7 means the soak saw an escaped
# exception or the campaign found a contract violation.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

usage() {
    echo "usage: scripts/check.sh {fast|full}" >&2
    exit 2
}
[[ $# -eq 1 ]] || usage
[[ $1 == fast || $1 == full ]] || usage
mode=$1

# -- fast ---------------------------------------------------------------

# The determinism and invariant rules (docs/static-analysis.md), the
# whole-program rules included, over src, tests, benchmarks and
# scripts: any finding fails here.
echo "== repro.lint =="
python -m repro.lint --scope all

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests benchmarks scripts
else
    echo "== ruff == (not installed; skipped)"
fi

if command -v mypy >/dev/null 2>&1; then
    echo "== mypy =="
    mypy
else
    echo "== mypy == (not installed; skipped)"
fi

echo "== tier-1 =="
python -m pytest -x -q

if [[ $mode == fast ]]; then
    echo "fast checks passed"
    exit 0
fi

# -- full ---------------------------------------------------------------

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# The pool creates no shared memory (workers report over their pipes),
# so any new /dev/shm/psm_* segment after the slow suites is a leak.
# Do not run other pool work at the same time.
shm_segments() {
    ls /dev/shm 2>/dev/null | grep '^psm_' | sort || true
}
shm_segments > "$workdir/shm-before"

echo "== pytest -m slow =="
python -m pytest tests -o addopts= -q -m slow --ignore tests/chaos

# Chaos runs assert "injected faults are either handled or detected":
# every CloudSystem built under this suite carries the strict runtime
# invariant monitor (docs/invariants.md).
echo "== chaos suite (strict invariants) =="
REPRO_INVARIANTS=strict python -m pytest tests/chaos -o addopts= -q

echo "== leaked shared memory =="
leaked=$(shm_segments | comm -13 "$workdir/shm-before" -)
if [[ -n $leaked ]]; then
    echo "the slow suites left shared-memory segments behind:" >&2
    echo "$leaked" >&2
    exit 1
fi
echo "   no new /dev/shm/psm_* segment"

# A small fig09 sweep, and a reduced fig13 whose result holds numpy
# arrays: the pooled artifacts must be byte-identical to the serial ones.
sweep=(fig09 --set payload_bits=256 --set runs=3)
arrays=(fig13 --set traces_per_model=2 --set epochs=5)

echo "== serial and pool artifacts =="
python -m repro.experiments "${sweep[@]}" --run-dir "$workdir/serial09" >/dev/null
python -m repro.experiments "${sweep[@]}" --workers 2 \
    --run-dir "$workdir/pool09" >/dev/null
python -m repro.experiments "${arrays[@]}" --run-dir "$workdir/serial13" >/dev/null
python -m repro.experiments "${arrays[@]}" --workers 2 \
    --run-dir "$workdir/pool13" >/dev/null
cmp "$workdir/serial09/result.pkl" "$workdir/pool09/result.pkl"
cmp "$workdir/serial13/result.pkl" "$workdir/pool13/result.pkl"
echo "   pool artifacts are byte-identical to the serial runs"

# Kill a sweep mid-run, resume it, and byte-compare against an
# uninterrupted run: resume_check <experiment> [--set k=v ...]
resume_check() {
    local label=$1
    echo "== $label: kill and resume =="
    python -m repro.experiments "$@" --run-dir "$workdir/$label-ref" >/dev/null

    python -m repro.experiments "$@" --run-dir "$workdir/$label-int" >/dev/null 2>&1 &
    local pid=$!
    # Start-up and imports can take longer than a fixed sleep: wait until
    # the run has checkpointed its manifest, so the SIGTERM lands mid-sweep.
    for _ in $(seq 1200); do
        [[ -f "$workdir/$label-int/manifest.json" ]] && break
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.05
    done
    sleep 0.5
    kill -TERM "$pid" 2>/dev/null || true
    local rc=0
    wait "$pid" || rc=$?
    if [[ $rc -ne 130 ]]; then
        echo "FAIL: interrupted $label run exited $rc, expected 130" >&2
        exit 1
    fi
    local completed
    completed=$(python -c "import json;print(json.load(open('$workdir/$label-int/manifest.json'))['completed'])")
    echo "   killed after $completed journaled trials (exit 130)"

    python -m repro.experiments "$@" --resume "$workdir/$label-int" >/dev/null
    cmp "$workdir/$label-ref/result.pkl" "$workdir/$label-int/result.pkl"
    echo "   resumed artifact is byte-identical to the uninterrupted run"
}

resume_check "${sweep[@]}"
resume_check "${arrays[@]}"

service="$workdir/service"
mkdir "$service"

echo "== service: clean run =="
python -m repro.service --sessions 300 --report "$service/clean.json"

echo "== service: chaos run (all service sites + kill lane) =="
python -m repro.service --sessions 300 --chaos-prob 0.05 --kill-prob 0.3 \
    --report "$service/chaos.json"

# Provisioned load for the drain lane: 8 lanes at an 80k-cycle mean
# interarrival is just under capacity, so an uninterrupted run
# completes every session — which is what makes "drain + resume loses
# nothing" checkable as an exact count.
drain_load=(--sessions 6000 --lanes 8 --mean-interarrival-cycles 80000)

echo "== service: drain (SIGTERM mid-run) and resume =="
python -m repro.service "${drain_load[@]}" --collect-session-ids \
    --checkpoint-dir "$service" --report "$service/drained.json" \
    >/dev/null 2>&1 &
pid=$!
sleep 2
kill -TERM "$pid" 2>/dev/null || true
rc=0
wait "$pid" || rc=$?
if [[ $rc -ne 130 ]]; then
    echo "FAIL: drained run exited $rc, expected 130" >&2
    exit 1
fi
if [[ ! -f "$service/service-checkpoint.json" ]]; then
    echo "FAIL: SIGTERM drain left no checkpoint" >&2
    exit 1
fi
echo "   drained with checkpoint (exit 130)"

python -m repro.service "${drain_load[@]}" --collect-session-ids \
    --resume "$service/service-checkpoint.json" \
    --checkpoint-dir "$service" --report "$service/resumed.json"
python - "$service" <<'PY'
import json, sys
service = sys.argv[1]
first = json.load(open(f"{service}/drained.json"))
second = json.load(open(f"{service}/resumed.json"))
a = set(first["session_ids"].get("completed", ()))
b = set(second["session_ids"].get("completed", ()))
acct1, acct2 = first["accounting"], second["accounting"]
assert first["status"] == "drained" and second["status"] == "completed"
assert not (a & b), "a session completed twice across the restart"
offered = acct1["offered"] + acct2["offered"]
assert offered == 6000, f"sessions lost across restart: {offered}/6000"
assert len(a) + len(b) == 6000, (
    f"non-completed exits under a provisioned load: {len(a)}+{len(b)}/6000"
)
assert acct2["resumed"] == acct1["checkpointed"], "checkpointed != resumed"
print(f"   {len(a)} + {len(b)} completions, disjoint; "
      f"{acct1['checkpointed']} checkpointed and all resumed")
PY

echo "== strict soak (8 seeds x 300 operations) =="
python -m repro.invariants.soak --seed 0 --runs 8 --operations 300

echo "== fuzz campaign (seed 0, 150 trials) =="
python -m repro.fuzz --seed 0 --trials 150 --dir "$workdir/fuzz"

# perfbench's self-tests: every span target still exists, and traced
# and untraced runs simulate the same bytes.
echo "== perfbench self-tests =="
python -m pytest perfbench -q

# The sampling monitor's budget on the probe hot path (< 1.8x bare).
echo "== invariants-overhead bench =="
python -m pytest benchmarks/test_bench_invariants_overhead.py -o addopts= -q -s

# Its pool-reuse gates run nowhere else.  Its record goes to the workdir
# and is printed, so the checkout stays clean.
echo "== parallel-scaling bench =="
BENCH_PARALLEL_PATH="$workdir/BENCH_parallel.json" \
    python -m pytest benchmarks/test_bench_parallel_scaling.py -o addopts= -q -s
cat "$workdir/BENCH_parallel.json"

echo "full checks passed"
