#!/usr/bin/env bash
# Guards the telemetry subsystem's contracts:
#
#   1. Overhead: an OPIM_TELEMETRY=ON build may not be more than
#      MAX_OVERHEAD_PCT slower than an OFF build on a fixed OPIM-C
#      workload (best-of-N wall time) — and the same budget holds with a
#      trace session recording (--trace-json), which exercises the
#      lock-free span path on every instrumented module.
#   2. Determinism: all configurations must select byte-identical seed
#      sets and report identical alpha for the same RNG seed — metrics
#      and traces observe, they never steer.
#   3. Validity: the trace the ON build emits passes report_lint.
#
#   scripts/check_telemetry_overhead.sh [reps]

set -euo pipefail
cd "$(dirname "$0")/.."

REPS="${1:-5}"
MAX_OVERHEAD_PCT=3
# The workload must be big enough that per-run fixed costs (process
# startup, graph load, report setup) don't drown the hot-path delta the
# check is actually about — ~150ms per run at this scale.
SCALE=15
K=50
EPS=0.1
SEED=42

build() {
  local dir="$1" telemetry="$2"
  cmake -B "$dir" -G Ninja -DCMAKE_BUILD_TYPE=Release \
    -DOPIM_TELEMETRY="$telemetry" >/dev/null
  cmake --build "$dir" --target opim_cli report_lint >/dev/null
}

echo "building telemetry ON  -> build-tm-on"
build build-tm-on ON
echo "building telemetry OFF -> build-tm-off"
build build-tm-off OFF

GRAPH="$(mktemp /tmp/opim_overhead_XXXX.opimg)"
trap 'rm -f "$GRAPH"' EXIT
build-tm-on/tools/opim_cli gen --dataset=pokec-sim --scale=$SCALE \
  --out="$GRAPH" >/dev/null

# Best-of-N run time for one build, printed as seconds. Extra CLI flags
# (e.g. --trace-json=...) ride along after the fixed workload.
best_time() {
  local cli="$1" best=""
  shift
  for _ in $(seq "$REPS"); do
    local t
    t="$("$cli" run --graph="$GRAPH" --algo=opim-c+ --k=$K --eps=$EPS \
        --seed=$SEED "$@" | sed -n 's/^time_seconds=\([0-9.]*\).*/\1/p')"
    if [[ -z "$best" ]] || awk -v a="$t" -v b="$best" 'BEGIN{exit !(a<b)}'; then
      best="$t"
    fi
  done
  echo "$best"
}

# Algorithmic output for one configuration: the deterministic lines only.
algo_output() {
  local cli="$1"
  shift
  "$cli" run --graph="$GRAPH" --algo=opim-c+ --k=$K --eps=$EPS --seed=$SEED \
    "$@" | grep -E '^(seeds:|alpha=)'
}

TRACE="$(mktemp /tmp/opim_overhead_trace_XXXX.json)"
trap 'rm -f "$GRAPH" "$TRACE"' EXIT

echo "checking determinism (seed=$SEED)"
ON_OUT="$(algo_output build-tm-on/tools/opim_cli)"
OFF_OUT="$(algo_output build-tm-off/tools/opim_cli)"
TRACED_OUT="$(algo_output build-tm-on/tools/opim_cli --trace-json="$TRACE")"
if [[ "$ON_OUT" != "$OFF_OUT" ]]; then
  echo "FAIL: telemetry build changes algorithmic output" >&2
  diff <(echo "$ON_OUT") <(echo "$OFF_OUT") >&2 || true
  exit 1
fi
if [[ "$ON_OUT" != "$TRACED_OUT" ]]; then
  echo "FAIL: an active trace session changes algorithmic output" >&2
  diff <(echo "$ON_OUT") <(echo "$TRACED_OUT") >&2 || true
  exit 1
fi
echo "  seeds and alpha identical across builds and with tracing active"

echo "checking trace validity (report_lint)"
build-tm-on/tools/report_lint --trace-json="$TRACE" >/dev/null || {
  echo "FAIL: emitted trace does not pass report_lint" >&2
  exit 1
}
echo "  trace passes report_lint"

echo "timing $REPS reps each (scale=$SCALE k=$K eps=$EPS)"
T_ON="$(best_time build-tm-on/tools/opim_cli)"
T_OFF="$(best_time build-tm-off/tools/opim_cli)"
T_TRACED="$(best_time build-tm-on/tools/opim_cli --trace-json="$TRACE")"
echo "  best OFF:       ${T_OFF}s"
echo "  best ON:        ${T_ON}s"
echo "  best ON+trace:  ${T_TRACED}s"

check_overhead() {
  local label="$1" t="$2"
  awk -v on="$t" -v off="$T_OFF" -v max="$MAX_OVERHEAD_PCT" -v lbl="$label" \
  'BEGIN {
    if (off <= 0) { print "  OFF time too small to compare; skipping"; exit 0 }
    pct = (on - off) / off * 100
    printf "  %s overhead: %+.2f%% (limit %d%%)\n", lbl, pct, max
    exit (pct > max) ? 1 : 0
  }' || { echo "FAIL: $label overhead above ${MAX_OVERHEAD_PCT}%" >&2; exit 1; }
}

check_overhead "telemetry" "$T_ON"
check_overhead "telemetry+trace" "$T_TRACED"

echo "OK"
