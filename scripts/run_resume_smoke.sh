#!/usr/bin/env bash
# End-to-end crash/resume smoke test:
#
#   1. run a small checkpointed fig09 sweep to completion (the reference),
#   2. start the identical sweep fresh, SIGTERM it mid-run (expect exit
#      130 and a journaled partial run),
#   3. --resume the killed run to completion,
#   4. byte-compare the resumed artifact against the reference,
#   5. repeat 1-4 for a reduced fig13 (a result holding numpy arrays),
#   6. run the pytest suites marked `resume` (excluded from tier-1).
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== lint preflight =="
python -m repro.lint src

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# Kill a sweep mid-run, resume it, and byte-compare against an
# uninterrupted run: resume_check <experiment> [--set k=v ...]
resume_check() {
    local label=$1
    echo "== $label: reference run (uninterrupted) =="
    python -m repro.experiments "$@" --run-dir "$workdir/$label-ref" >/dev/null

    echo "== $label: interrupted run (SIGTERM mid-sweep) =="
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
    if [[ "$rc" -ne 130 ]]; then
        echo "FAIL: interrupted $label run exited $rc, expected 130" >&2
        exit 1
    fi
    local completed
    completed=$(python -c "import json;print(json.load(open('$workdir/$label-int/manifest.json'))['completed'])")
    echo "   killed after $completed journaled trials (exit 130)"

    echo "== $label: resume =="
    python -m repro.experiments "$@" --resume "$workdir/$label-int" >/dev/null

    echo "== $label: diff artifact =="
    cmp "$workdir/$label-ref/result.pkl" "$workdir/$label-int/result.pkl"
    echo "   resumed artifact is byte-identical to the uninterrupted run"
}

resume_check fig09 --set payload_bits=256 --set runs=3
resume_check fig13 --set traces_per_model=2 --set epochs=5

echo "== pytest -m resume =="
python -m pytest tests -o addopts="" -m resume -q "$@"

echo "resume smoke test passed"
