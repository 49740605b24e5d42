#!/usr/bin/env bash
# Regenerates every artifact: build, tests, all paper tables/figures and
# ablations. Pass --full to use paper-scale parameters (slower).
#
#   scripts/run_all.sh [--full] [output_dir]

set -euo pipefail
cd "$(dirname "$0")/.."

FULL=""
if [[ "${1:-}" == "--full" ]]; then
  FULL="--full"
  shift
fi
OUT="${1:-results}"
mkdir -p "$OUT"

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build --output-on-failure 2>&1 | tee "$OUT/test_output.txt"

# The full suite must also pass with telemetry compiled out — golden tests
# pin outputs, so this proves instrumentation is observe-only.
cmake -B build-notm -G Ninja -DOPIM_TELEMETRY=OFF
cmake --build build-notm
ctest --test-dir build-notm --output-on-failure 2>&1 \
  | tee "$OUT/test_output_notelemetry.txt"

# Fault-injection build: compiles the deterministic fault sites in
# (OPIM_FAULT_INJECT=ON) so the degradation paths — worker failure,
# injected clock skew, injected memory spikes — get real coverage.
# Everywhere else fault_injection_test reduces to a compile-gate
# placeholder, so this configuration is the only one that exercises
# StopReason::kWorkerFailure end to end.
cmake -B build-fi -G Ninja -DOPIM_FAULT_INJECT=ON \
  -DOPIM_BUILD_BENCHMARKS=OFF -DOPIM_BUILD_EXAMPLES=OFF
cmake --build build-fi
ctest --test-dir build-fi --output-on-failure \
  -R 'FaultInjection|Guardrails|RunControl|StopReason|SignalGuard|ThreadPool|Snapshot|TwoPoolEngine' 2>&1 \
  | tee "$OUT/test_output_faultinject.txt"

# Sanitized build (ASan + UBSan) over the memory-heavy engine subset:
# sampling kernels, RR-set storage (the judge scan, restored pools and
# the in-place merges of online advances in OnlineThreads included),
# parallel generation, selection (CELF from maintained member counts
# against the postings oracle, across doublings), and the
# trace columns the certificates read (prefix queries, λᵘ and σ_u).
# These are the paths with raw index arithmetic (quantized thresholds,
# geometric skips, flattened alias arena, CSR rebuilds), so UB or
# out-of-bounds access must fail loudly here even when the plain build
# happens to pass (the configuration also defines _GLIBCXX_ASSERTIONS, so
# a vector indexed past size() but inside its capacity fails too). Fault
# sites are compiled in too: the injected-failure unwind paths (shard
# buffers dropped mid-batch, trip bookkeeping) are exactly where leaks or
# use-after-free would hide.
cmake -B build-asan -G Ninja -DOPIM_SANITIZE=ON -DOPIM_FAULT_INJECT=ON \
  -DOPIM_BUILD_BENCHMARKS=OFF -DOPIM_BUILD_EXAMPLES=OFF
cmake --build build-asan
ctest --test-dir build-asan --output-on-failure \
  -R 'SamplingView|Quantize|KernelDifferential|SharedView|Sampler|RRCollection|OnlineThreads|Greedy|Celf|FaultInjection|Guardrails|RunControl|SignalGuard|ThreadPool|LoaderRobustness|VarintCodec|CoverBitset|CoverKernel|GraphMmap|MmapArena|RRSpill|SpillDifferential|GraphPack|ResourceUsage|Snapshot|IoUtil|CheckpointResume|TwoPoolEngine|JudgeScan|SelectionState|TraceQuery|QueryKs|LambdaUpper|SigmaUpper' 2>&1 \
  | tee "$OUT/test_output_sanitized.txt"

# TSan build over the concurrency-heavy subset: the thread pool and the
# joins that run queued work on the calling thread (TaskGroup and
# ParallelFor, the spread estimator's shards among them), the two-pool
# engine's staged and speculative batches
# (TwoPoolEngine, multi-thread online sessions in OnlineThreads,
# OpimCPipeline, and 4-thread RunOpimC through the judge scan in
# OpimCDeterminism and QueryKs), batch index appends (RRCollection: one
# task per index partition, rewritten or merged in place, all writing the
# shared per-node vectors), the SamplingView build on pool workers, the
# lock-free trace recorder, and the progress heartbeat all publish across
# threads with hand-placed acquire/release pairs, so a missing fence must
# fail loudly here. TSan and ASan cannot
# share a build (mutually exclusive runtimes), hence the separate tree.
cmake -B build-tsan -G Ninja -DOPIM_SANITIZE=thread \
  -DOPIM_BUILD_BENCHMARKS=OFF -DOPIM_BUILD_EXAMPLES=OFF
cmake --build build-tsan
ctest --test-dir build-tsan --output-on-failure \
  -R 'ThreadPool|OnlineThreads|OpimCPipeline|Trace|Progress|RunControl|Guardrails|Metrics|SpillDifferential|SelectionState|TwoPoolEngine|SamplingView|RRCollection|SpreadEstimator|EstimateWithError|QueryKs|OpimCDeterminism' 2>&1 \
  | tee "$OUT/test_output_tsan.txt"

# Live signal handling: SIGINT a real CLI run, expect a clean degraded
# exit (code 5, seeds + alpha on stdout, complete JSON report); a second
# SIGINT must force an immediate exit 130.
scripts/check_signal_handling.sh --build-dir build 2>&1 \
  | tee "$OUT/signal_handling.txt"

# Live crash recovery: kill -9 a checkpointing run mid-doubling, lint the
# surviving .opimss with tools/snapshot_inspect, resume it, and demand
# the uninterrupted run's exact seeds and alpha.
scripts/check_crash_recovery.sh --build-dir build 2>&1 \
  | tee "$OUT/crash_recovery.txt"

for b in build/bench/*; do
  name="$(basename "$b")"
  # The RR-set engine perf baselines have their own driver (run below
  # against both telemetry configurations).
  if [[ "$name" == bench_select_ingest || "$name" == bench_generate \
        || "$name" == bench_load || "$name" == bench_snapshot ]]; then
    continue
  fi
  echo "=== $name ==="
  # Figure benches accept --full and --csv; the others ignore unknown
  # flags, and google-benchmark binaries get no extra flags.
  if [[ "$name" == bench_micro_components ]]; then
    "$b" | tee "$OUT/$name.txt"
  else
    "$b" $FULL --csv="$OUT/$name" | tee "$OUT/$name.txt"
  fi
done

# Perf-baseline smoke (select/ingest + generation kernels + graph
# loading) against both
# telemetry configurations: with telemetry the JSON carries engine
# counters/timers, without it the counters section is empty but timings
# must still be produced.
echo "=== perf baselines (smoke, telemetry on) ==="
scripts/run_perf_baseline.sh --smoke --build-dir build \
  | tee "$OUT/bench_perf_baseline_smoke.json"
echo "=== perf baselines (smoke, telemetry off) ==="
scripts/run_perf_baseline.sh --smoke --build-dir build-notm \
  | tee "$OUT/bench_perf_baseline_smoke_notelemetry.json"

# Opt-in perf gate (CHECK_BENCH_REGRESSION=1): re-measure the headline
# engine timings and fail if any regressed >10% against the committed
# baselines. Off by default — shared CI machines make wall-clock numbers
# too noisy to block every run on.
if [[ "${CHECK_BENCH_REGRESSION:-0}" == "1" ]]; then
  echo "=== bench regression gate ==="
  FRESH_GEN="$OUT/fresh_bench_generate.json"
  FRESH_SEL="$OUT/fresh_bench_select_ingest.json"
  FRESH_LOAD="$OUT/fresh_bench_load.json"
  FRESH_SNAP="$OUT/fresh_bench_snapshot.json"
  # --threads must match the committed baseline's config.threads_n so the
  # *_generate_nt engine-path headline compares like with like.
  build/bench/bench_generate --label=after --threads=2 "--out=$FRESH_GEN"
  build/bench/bench_select_ingest --label=after --seed=7 "--out=$FRESH_SEL"
  build/bench/bench_load --label=after "--out=$FRESH_LOAD"
  build/bench/bench_snapshot --label=after "--out=$FRESH_SNAP"
  python3 scripts/check_bench_regression.py \
    --baseline-generate BENCH_generate.json --fresh-generate "$FRESH_GEN" \
    --baseline-select BENCH_select_ingest.json --fresh-select "$FRESH_SEL" \
    --baseline-load BENCH_load.json --fresh-load "$FRESH_LOAD" \
    --baseline-snapshot BENCH_snapshot.json --fresh-snapshot "$FRESH_SNAP" \
    --threshold-pct "${BENCH_REGRESSION_THRESHOLD_PCT:-10}" 2>&1 \
    | tee "$OUT/bench_regression.txt"
fi

echo "All outputs in $OUT/"
