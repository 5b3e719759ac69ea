#!/usr/bin/env bash
# End-to-end crash/resume smoke test:
#
#   1. run a small checkpointed fig09 sweep to completion (the reference),
#   2. start the identical sweep fresh, SIGTERM it mid-run (expect exit
#      130 and a journaled partial run),
#   3. --resume the killed run to completion,
#   4. byte-compare the resumed artifact against the reference,
#   5. run the pytest suites marked `resume` (excluded from tier-1).
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== lint preflight =="
python -m repro.lint src

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

sweep=(fig09 --set payload_bits=256 --set runs=3)

echo "== reference run (uninterrupted) =="
python -m repro.experiments "${sweep[@]}" --run-dir "$workdir/ref" >/dev/null

echo "== interrupted run (SIGTERM mid-sweep) =="
python -m repro.experiments "${sweep[@]}" --run-dir "$workdir/int" >/dev/null 2>&1 &
pid=$!
# Start-up and imports can take longer than a fixed sleep: wait until the
# run has checkpointed its manifest, so the SIGTERM lands mid-sweep.
for _ in $(seq 1200); do
    [[ -f "$workdir/int/manifest.json" ]] && break
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.05
done
sleep 0.5
kill -TERM "$pid" 2>/dev/null || true
rc=0
wait "$pid" || rc=$?
if [[ "$rc" -ne 130 ]]; then
    echo "FAIL: interrupted run exited $rc, expected 130" >&2
    exit 1
fi
completed=$(python -c "import json;print(json.load(open('$workdir/int/manifest.json'))['completed'])")
echo "   killed after $completed journaled trials (exit 130)"

echo "== resume =="
python -m repro.experiments "${sweep[@]}" --resume "$workdir/int" >/dev/null

echo "== diff artifact =="
cmp "$workdir/ref/result.pkl" "$workdir/int/result.pkl"
echo "   resumed artifact is byte-identical to the uninterrupted run"

echo "== pytest -m resume =="
python -m pytest tests -o addopts="" -m resume -q "$@"

echo "resume smoke test passed"
