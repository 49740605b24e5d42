#!/usr/bin/env bash
# Live signal-handling smoke test: SIGINT delivered to a running CLI
# invocation must produce a *clean* degraded exit, not a killed process —
#
#   1. the process exits with the documented cancellation code (5),
#   2. stdout still carries the anytime answer (seeds + alpha) and
#      `stop_reason=cancelled`,
#   3. the --metrics-json report is written and well-formed, with
#      "stop_reason":"cancelled" and a cancellation latency.
#
# The workload is sized so the run takes seconds; the signal lands ~0.3s
# in, mid-generation. If the machine is fast enough that the run converges
# before the signal arrives, we retry with a shorter delay instead of
# reporting a false failure.
#
# A second phase delivers TWO SIGINTs in quick succession: the second
# must force an immediate _exit(130) (128 + SIGINT) — the documented
# escape hatch for operators who will not wait out graceful degradation
# or a checkpoint-on-shutdown write.
#
#   scripts/check_signal_handling.sh [--build-dir <dir>]

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="build"
if [[ "${1:-}" == "--build-dir" ]]; then
  BUILD_DIR="$2"
  shift 2
fi
CLI="$BUILD_DIR/tools/opim_cli"
if [[ ! -x "$CLI" ]]; then
  echo "FAIL: $CLI not built (cmake --build $BUILD_DIR --target opim_cli)" >&2
  exit 1
fi

WORK="$(mktemp -d /tmp/opim_signal_XXXX)"
trap 'rm -rf "$WORK"' EXIT
GRAPH="$WORK/graph.opimg"
REPORT="$WORK/report.json"
STDOUT="$WORK/stdout.txt"

"$CLI" gen --dataset=pokec-sim --scale=15 --out="$GRAPH" >/dev/null

run_and_interrupt() {
  local delay="$1"
  rm -f "$REPORT"
  # Tight eps + large k: tens of seconds of generation if left alone.
  "$CLI" run --graph="$GRAPH" --algo=opim-c+ --k=100 --eps=0.05 --seed=42 \
    --metrics-json="$REPORT" >"$STDOUT" 2>/dev/null &
  local pid=$!
  sleep "$delay"
  kill -INT "$pid" 2>/dev/null || true
  local rc=0
  wait "$pid" || rc=$?
  echo "$rc"
}

RC=""
for delay in 0.3 0.15 0.05; do
  RC="$(run_and_interrupt "$delay")"
  if [[ "$RC" != 0 ]]; then break; fi
  echo "  run converged before SIGINT (delay=${delay}s); retrying faster"
done

echo "interrupted run exited with code $RC"
if [[ "$RC" != 5 ]]; then
  echo "FAIL: expected cancellation exit code 5, got $RC" >&2
  cat "$STDOUT" >&2
  exit 1
fi

fail() { echo "FAIL: $1" >&2; cat "$STDOUT" >&2; exit 1; }

grep -q '^stop_reason=cancelled$' "$STDOUT" \
  || fail "stdout missing stop_reason=cancelled"
grep -q '^seeds:' "$STDOUT" || fail "stdout missing anytime seed set"
grep -q '^alpha=' "$STDOUT" || fail "stdout missing anytime alpha"

[[ -s "$REPORT" ]] || fail "--metrics-json report not written"
grep -q '"stop_reason": *"cancelled"' "$REPORT" \
  || fail "report missing stop_reason cancelled"
grep -q '"cancel_latency_ms"' "$REPORT" \
  || fail "report missing cancel_latency_ms"
grep -q '"schema": *"opim.run_report.v1"' "$REPORT" \
  || fail "report missing schema marker (truncated write?)"

echo "  stdout carries seeds/alpha and stop_reason=cancelled"
echo "  report is complete JSON with stop_reason + cancel latency"

# --- Phase 2: double SIGINT forces an immediate exit 130 -------------
run_and_double_interrupt() {
  local delay="$1"
  "$CLI" run --graph="$GRAPH" --algo=opim-c+ --k=100 --eps=0.05 --seed=42 \
    >"$STDOUT" 2>/dev/null &
  local pid=$!
  sleep "$delay"
  kill -INT "$pid" 2>/dev/null || true
  sleep 0.05
  kill -INT "$pid" 2>/dev/null || true
  local rc=0
  wait "$pid" || rc=$?
  echo "$rc"
}

RC=""
for delay in 0.3 0.15 0.05; do
  RC="$(run_and_double_interrupt "$delay")"
  # 130 = forced exit; 5 means the run finished its graceful shutdown
  # before the second signal landed — only code 0 (converged before any
  # signal) warrants a faster retry.
  if [[ "$RC" != 0 ]]; then break; fi
  echo "  run converged before the SIGINTs (delay=${delay}s); retrying faster"
done

echo "double-interrupted run exited with code $RC"
if [[ "$RC" == 5 ]]; then
  echo "  (graceful shutdown won the race with the second SIGINT; accepted)"
elif [[ "$RC" != 130 ]]; then
  echo "FAIL: expected forced exit code 130 (or graceful 5), got $RC" >&2
  exit 1
fi

echo "OK"
