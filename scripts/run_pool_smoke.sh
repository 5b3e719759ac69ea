#!/usr/bin/env bash
# Persistent-pool smoke test:
#
#   1. lint preflight (includes the whole-program rules PAR101 and
#      EXC101 — cross-process shared-state writes, and shared-memory
#      acquisitions with no tied release, direct or through helpers),
#   2. run a small fig09 sweep serially and again with --workers 2
#      under --executor pool and --executor auto, and a reduced fig13
#      (a result holding numpy arrays) serially and pooled;
#      byte-compare the artifacts,
#   3. run the pytest suites marked `pool` (excluded from tier-1):
#      the serial≡parallel sweeps (fig09 at 4 workers, table3, fig11),
#      the three-way serial/pool/resume digest test of the heavy
#      experiments,
#      the fault matrix across the process boundary, and the pool chaos
#      matrix (crashed and stalled workers, corrupt result messages,
#      external kill -9, SIGTERM drain),
#   4. fail if the lane left a new /dev/shm/psm_* segment behind (the
#      pool creates none; workers report over their pipes).
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== lint preflight =="
python -m repro.lint src

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

sweep=(fig09 --set payload_bits=256 --set runs=3)
arrays=(fig13 --set traces_per_model=2 --set epochs=5)

echo "== serial reference =="
python -m repro.experiments "${sweep[@]}" --run-dir "$workdir/serial" >/dev/null

echo "== 2-worker pooled run =="
python -m repro.experiments "${sweep[@]}" --workers 2 --executor pool \
    --run-dir "$workdir/pool" >/dev/null

echo "== 2-worker auto run =="
python -m repro.experiments "${sweep[@]}" --workers 2 --executor auto \
    --run-dir "$workdir/auto" >/dev/null

echo "== fig13 serial and 2-worker pooled runs =="
python -m repro.experiments "${arrays[@]}" --run-dir "$workdir/serial13" >/dev/null
python -m repro.experiments "${arrays[@]}" --workers 2 --executor pool \
    --run-dir "$workdir/pool13" >/dev/null

echo "== diff artifacts =="
cmp "$workdir/serial/result.pkl" "$workdir/pool/result.pkl"
cmp "$workdir/serial/result.pkl" "$workdir/auto/result.pkl"
cmp "$workdir/serial13/result.pkl" "$workdir/pool13/result.pkl"
echo "   pool and auto artifacts are byte-identical to the serial runs"

shm_segments() {
    ls /dev/shm 2>/dev/null | grep '^psm_' | sort || true
}
shm_before="$workdir/shm-before"
shm_segments > "$shm_before"

echo "== pytest -m pool =="
python -m pytest tests -o addopts="" -m pool -q "$@"

echo "== leaked shared memory =="
leaked=$(shm_segments | comm -13 "$shm_before" -)
if [ -n "$leaked" ]; then
    echo "the pool lane left shared-memory segments behind:" >&2
    echo "$leaked" >&2
    exit 1
fi
echo "   no new /dev/shm/psm_* segment"

echo "pool smoke test passed"
