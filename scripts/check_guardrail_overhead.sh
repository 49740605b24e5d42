#!/usr/bin/env bash
# Guards the run-control subsystem's two compile-out contracts:
#
#   1. Determinism: an OPIM_FAULT_INJECT=ON build (fault sites compiled in
#      but NOT armed) must select byte-identical seed sets and report
#      identical alpha to an OFF build for the same RNG seed — dormant
#      fault points and guardrail polling observe, they never steer.
#   2. Overhead: the ON build may not be more than MAX_OVERHEAD_PCT slower
#      than the OFF build on a fixed OPIM-C workload (best-of-N wall
#      time). In the OFF build every OPIM_FAULT_POINT folds to the literal
#      `false`, so this bounds the cost of the guardrail plumbing itself.
#
#   scripts/check_guardrail_overhead.sh [reps]

set -euo pipefail
cd "$(dirname "$0")/.."

REPS="${1:-5}"
MAX_OVERHEAD_PCT=3
# Big enough that per-run fixed costs (startup, graph load) don't drown
# the guardrail-poll delta the check is about — a few hundred ms of
# generation per run with the fast sampling kernel.
SCALE=16
K=100
EPS=0.05
SEED=42

build() {
  local dir="$1" fi="$2"
  cmake -B "$dir" -G Ninja -DCMAKE_BUILD_TYPE=Release \
    -DOPIM_FAULT_INJECT="$fi" >/dev/null
  cmake --build "$dir" --target opim_cli >/dev/null
}

echo "building fault-inject ON  -> build-fi-on"
build build-fi-on ON
echo "building fault-inject OFF -> build-fi-off"
build build-fi-off OFF

GRAPH="$(mktemp /tmp/opim_guardrail_XXXX.opimg)"
trap 'rm -f "$GRAPH"' EXIT
build-fi-on/tools/opim_cli gen --dataset=pokec-sim --scale=$SCALE \
  --out="$GRAPH" >/dev/null

# A generous deadline keeps the RunControl armed (polls happen on the hot
# path) without ever tripping, so both contracts cover the guarded path.
RUN_FLAGS=(run --graph="$GRAPH" --algo=opim-c+ --k=$K --eps=$EPS
           --seed=$SEED --deadline-ms=3600000)

best_time() {
  local cli="$1" best=""
  for _ in $(seq "$REPS"); do
    local t
    t="$("$cli" "${RUN_FLAGS[@]}" |
        sed -n 's/^time_seconds=\([0-9.]*\).*/\1/p')"
    if [[ -z "$best" ]] || awk -v a="$t" -v b="$best" 'BEGIN{exit !(a<b)}'; then
      best="$t"
    fi
  done
  echo "$best"
}

algo_output() {
  "$1" "${RUN_FLAGS[@]}" | grep -E '^(seeds:|alpha=|stop_reason=)'
}

echo "checking determinism (seed=$SEED, unarmed fault sites, live deadline)"
ON_OUT="$(algo_output build-fi-on/tools/opim_cli)"
OFF_OUT="$(algo_output build-fi-off/tools/opim_cli)"
if [[ "$ON_OUT" != "$OFF_OUT" ]]; then
  echo "FAIL: fault-inject build changes algorithmic output" >&2
  diff <(echo "$ON_OUT") <(echo "$OFF_OUT") >&2 || true
  exit 1
fi
if ! grep -q '^stop_reason=converged$' <<<"$ON_OUT"; then
  echo "FAIL: guarded run did not converge naturally" >&2
  exit 1
fi
echo "  seeds, alpha, and stop_reason identical across builds"

echo "timing $REPS reps each (scale=$SCALE k=$K eps=$EPS)"
T_ON="$(best_time build-fi-on/tools/opim_cli)"
T_OFF="$(best_time build-fi-off/tools/opim_cli)"
echo "  best ON:  ${T_ON}s"
echo "  best OFF: ${T_OFF}s"

awk -v on="$T_ON" -v off="$T_OFF" -v max="$MAX_OVERHEAD_PCT" 'BEGIN {
  if (off <= 0) { print "  OFF time too small to compare; skipping"; exit 0 }
  pct = (on - off) / off * 100
  printf "  overhead: %+.2f%% (limit %d%%)\n", pct, max
  exit (pct > max) ? 1 : 0
}' || { echo "FAIL: fault-inject overhead above ${MAX_OVERHEAD_PCT}%" >&2; exit 1; }

echo "OK"
