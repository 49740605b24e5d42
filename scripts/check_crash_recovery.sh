#!/usr/bin/env bash
# Live crash-recovery test: kill -9 a checkpointing CLI run mid-doubling,
# then resume from the last durable snapshot and demand the exact answer
# the uninterrupted run produces —
#
#   1. a reference run (no checkpointing) records the golden seeds/alpha,
#   2. the same run with --checkpoint-dir is SIGKILLed as soon as a
#      snapshot exists (no graceful path: this is the crash the
#      write-to-temp + fsync + rename protocol must survive),
#   3. tools/snapshot_inspect must validate the surviving snapshot
#      (exit 0) — and must reject a deliberately truncated copy (exit 1),
#   4. the --resume run must reproduce the reference seeds and alpha
#      bit-for-bit and report resumed_from_iteration in its JSON report.
#
# If the machine is fast enough that the checkpointed run finishes before
# the kill lands, the test still proceeds: the snapshot on disk is the
# final iteration's boundary state and the resume comparison is equally
# binding.
#
#   scripts/check_crash_recovery.sh [--build-dir <dir>]

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="build"
if [[ "${1:-}" == "--build-dir" ]]; then
  BUILD_DIR="$2"
  shift 2
fi
CLI="$BUILD_DIR/tools/opim_cli"
INSPECT="$BUILD_DIR/tools/snapshot_inspect"
for bin in "$CLI" "$INSPECT"; do
  if [[ ! -x "$bin" ]]; then
    echo "FAIL: $bin not built (cmake --build $BUILD_DIR)" >&2
    exit 1
  fi
done

WORK="$(mktemp -d /tmp/opim_crash_XXXX)"
trap 'rm -rf "$WORK"' EXIT
GRAPH="$WORK/graph.opimg"
CKDIR="$WORK/checkpoints"
SNAPSHOT="$CKDIR/opimc.opimss"
REPORT="$WORK/resume_report.json"
mkdir -p "$CKDIR"

RUN_FLAGS=(--graph="$GRAPH" --algo=opim-c+ --k=50 --eps=0.05 --seed=42
           --threads=2 --mc=0)

"$CLI" gen --dataset=pokec-sim --scale=15 --out="$GRAPH" >/dev/null

fail() { echo "FAIL: $1" >&2; exit 1; }

# 1. Reference: the uninterrupted run's answer.
"$CLI" run "${RUN_FLAGS[@]}" >"$WORK/reference.txt" 2>/dev/null
REF_SEEDS="$(grep '^seeds:' "$WORK/reference.txt")"
REF_ALPHA="$(grep '^alpha=' "$WORK/reference.txt")"
[[ -n "$REF_SEEDS" && -n "$REF_ALPHA" ]] \
  || fail "reference run produced no seeds/alpha"

# 2. Checkpointed run, SIGKILLed once a snapshot is durable. The rename
#    publish means an existing file is always complete — no settling
#    sleep needed before the kill.
"$CLI" run "${RUN_FLAGS[@]}" --checkpoint-dir="$CKDIR" \
  >"$WORK/killed.txt" 2>/dev/null &
PID=$!
for _ in $(seq 1 200); do
  [[ -s "$SNAPSHOT" ]] && break
  kill -0 "$PID" 2>/dev/null || break
  sleep 0.02
done
kill -9 "$PID" 2>/dev/null && echo "  killed checkpointing run (pid $PID)" \
  || echo "  run finished before the kill; using its final snapshot"
wait "$PID" 2>/dev/null || true
[[ -s "$SNAPSHOT" ]] || fail "no snapshot written before the run ended"

# 3. The surviving snapshot must pass the strict validator...
"$INSPECT" "$SNAPSHOT" >"$WORK/inspect.txt" \
  || fail "snapshot_inspect rejected the surviving snapshot"
grep -q '^magic=OPIMSSv1$' "$WORK/inspect.txt" \
  || fail "snapshot_inspect output missing the header dump"
ITER="$(sed -n 's/^run.next_iteration=//p' "$WORK/inspect.txt")"
echo "  snapshot valid: resumes at iteration $ITER"

#    ...and a truncated copy must be rejected with exit 1.
head -c 100 "$SNAPSHOT" >"$WORK/truncated.opimss"
RC=0
"$INSPECT" "$WORK/truncated.opimss" >/dev/null 2>&1 || RC=$?
[[ "$RC" == 1 ]] || fail "snapshot_inspect exit $RC on a truncated file (want 1)"

# 4. Resume and compare bit-for-bit.
"$CLI" run --graph="$GRAPH" --resume="$SNAPSHOT" --mc=0 \
  --metrics-json="$REPORT" >"$WORK/resumed.txt" 2>/dev/null
RES_SEEDS="$(grep '^seeds:' "$WORK/resumed.txt")"
RES_ALPHA="$(grep '^alpha=' "$WORK/resumed.txt")"
[[ "$RES_SEEDS" == "$REF_SEEDS" ]] \
  || fail "resumed seeds differ:
  reference: $REF_SEEDS
  resumed:   $RES_SEEDS"
[[ "$RES_ALPHA" == "$REF_ALPHA" ]] \
  || fail "resumed alpha/iterations differ:
  reference: $REF_ALPHA
  resumed:   $RES_ALPHA"
grep -q '"resumed_from_iteration"' "$REPORT" \
  || fail "resume report missing resumed_from_iteration"

echo "  resumed run reproduced the reference seeds and alpha exactly"
echo "OK"
