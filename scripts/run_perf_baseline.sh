#!/usr/bin/env bash
# RR-set engine perf baselines: runs bench_select_ingest (batch ingestion,
# greedy/CELF selection with and without the §5 trace, bound assembly, and
# the end-to-end generate+ingest path), bench_generate (the sampling
# kernel itself plus one engine batch at 1 and N threads, IC and LT under
# weighted-cascade weights), and bench_load (text parsing vs the
# memory-mapped .opimg container, plus the out-of-core spill smoke),
# recording each run under its label in BENCH_select_ingest.json,
# BENCH_generate.json, and BENCH_load.json.
#
#   scripts/run_perf_baseline.sh [--smoke] [--label NAME] [--build-dir DIR]
#                                [--json FILE] [--gen-json FILE]
#                                [--load-json FILE] [--seed S]
#                                [--gen-threads T]
#
#   --smoke       tiny config (~1 s) for CI wiring; the JSON artifacts are
#                 left untouched, output goes to stdout only
#   --label NAME  label for this run (default "after"); a full run
#                 replaces the entry with the same label in each artifact
#   --build-dir   build tree containing the bench binaries (default: build)
#   --json FILE   select/ingest artifact (default: BENCH_select_ingest.json)
#   --gen-json F  generation artifact (default: BENCH_generate.json)
#   --load-json F graph-loading artifact (default: BENCH_load.json)
#   --seed S      RR-stream seed for bench_select_ingest (default 7). The
#                 stream comes from the bench's version-independent
#                 reference sampler, so before/after binaries given the
#                 same seed replay the identical pool (the config block's
#                 pool_checksum must match across labels)
#   --gen-threads T  thread count for bench_generate's engine-path config
#                 (*_generate_nt: run-owned pool + cached sampling view;
#                 default 2). The cold *_generate_1t headline is always
#                 measured at 1 thread
#
# Each artifact keeps one run object per label plus, when both "before"
# and "after" are present, a derived speedup block: for select/ingest the
# engine's selection and ingestion paths, for generation the IC/LT sampling
# kernels and end-to-end generate. See docs/performance.md.

set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=0
LABEL=after
BUILD=build
JSON=BENCH_select_ingest.json
GEN_JSON=BENCH_generate.json
LOAD_JSON=BENCH_load.json
SEED=7
GEN_THREADS=2
while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) SMOKE=1 ;;
    --label) LABEL="$2"; shift ;;
    --build-dir) BUILD="$2"; shift ;;
    --json) JSON="$2"; shift ;;
    --gen-json) GEN_JSON="$2"; shift ;;
    --load-json) LOAD_JSON="$2"; shift ;;
    --seed) SEED="$2"; shift ;;
    --gen-threads) GEN_THREADS="$2"; shift ;;
    *) echo "unknown flag: $1" >&2; exit 2 ;;
  esac
  shift
done

SELECT_BIN="$BUILD/bench/bench_select_ingest"
GEN_BIN="$BUILD/bench/bench_generate"
LOAD_BIN="$BUILD/bench/bench_load"
if [[ ! -x "$SELECT_BIN" ]]; then
  cmake --build "$BUILD" --target bench_select_ingest
fi
if [[ ! -x "$GEN_BIN" ]]; then
  cmake --build "$BUILD" --target bench_generate
fi
if [[ ! -x "$LOAD_BIN" ]]; then
  cmake --build "$BUILD" --target bench_load
fi

if [[ "$SMOKE" -eq 1 ]]; then
  "$SELECT_BIN" --smoke "--label=$LABEL-smoke"
  "$GEN_BIN" --smoke "--label=$LABEL-smoke"
  "$LOAD_BIN" --smoke "--label=$LABEL-smoke"
  exit 0
fi

TMP="$(mktemp)"
trap 'rm -f "$TMP" "$JSON.tmp" "$GEN_JSON.tmp" "$LOAD_JSON.tmp"' EXIT

# merge_run ARTIFACT BENCH_NAME RESULT_FILE: upsert the labeled run object.
merge_run() {
  local artifact="$1" bench="$2" result="$3"
  if [[ -f "$artifact" ]]; then
    jq --slurpfile run "$result" \
       '.runs = ([.runs[] | select(.label != $run[0].label)] + $run)' \
       "$artifact" > "$artifact.tmp"
  else
    jq -n --slurpfile run "$result" --arg bench "$bench" \
       '{benchmark: $bench, runs: $run}' > "$artifact.tmp"
  fi
}

"$SELECT_BIN" "--label=$LABEL" "--seed=$SEED" "--out=$TMP"
merge_run "$JSON" bench_select_ingest "$TMP"

# Derived speedups once a before/after pair exists: "selection" is the
# phase RunOpimC pays (trace-producing selection), "ingest" the batch
# ingestion + index build, "generate_ingest" the end-to-end engine path.
jq 'if ([.runs[].label] | contains(["before", "after"])) then
      ((.runs[] | select(.label == "before")).timings_us) as $b
      | ((.runs[] | select(.label == "after")).timings_us) as $a
      | .speedup_after_vs_before = {
          ingest: (($b.ingest / $a.ingest) * 100 | round / 100),
          selection_trace:
            (($b.select_greedy_trace / $a.select_celf_trace) * 100
             | round / 100),
          generate_ingest:
            (($b.generate_ingest / $a.generate_ingest) * 100 | round / 100)
        }
    else . end' "$JSON.tmp" > "$JSON"
rm -f "$JSON.tmp"
echo "updated $JSON (label=$LABEL)"

"$GEN_BIN" "--label=$LABEL" "--threads=$GEN_THREADS" "--out=$TMP"
merge_run "$GEN_JSON" bench_generate "$TMP"

# Kernel speedups: IC/LT pure sampling kernels (the acceptance number for
# the quantized-threshold + geometric-skip rewrite) plus the end-to-end
# single-thread generate path. When a "pre_pipeline" anchor run exists
# (the committed pre-pipelining engine headline), also derive the
# end-to-end generate+ingest speedup of the pipelined engine path
# (*_generate_nt: run-owned pool + cached view) against it.
jq 'if ([.runs[].label] | contains(["before", "after"])) then
      ((.runs[] | select(.label == "before")).timings_us) as $b
      | ((.runs[] | select(.label == "after")).timings_us) as $a
      | .speedup_after_vs_before = {
          ic_kernel_1t: (($b.IC_kernel_1t / $a.IC_kernel_1t) * 100
                         | round / 100),
          lt_kernel_1t: (($b.LT_kernel_1t / $a.LT_kernel_1t) * 100
                         | round / 100),
          ic_generate_1t: (($b.IC_generate_1t / $a.IC_generate_1t) * 100
                           | round / 100),
          lt_generate_1t: (($b.LT_generate_1t / $a.LT_generate_1t) * 100
                           | round / 100)
        }
    else . end
    | if ([.runs[].label] | contains(["pre_pipeline", "after"])) then
        ((.runs[] | select(.label == "pre_pipeline")).timings_us) as $p
        | ((.runs[] | select(.label == "after")).timings_us) as $a
        | .generate_speedup_vs_pre_pipeline = {
            ic_generate_nt: (($p.IC_generate_1t / $a.IC_generate_nt) * 100
                             | round / 100),
            lt_generate_nt: (($p.LT_generate_1t / $a.LT_generate_nt) * 100
                             | round / 100)
          }
      else . end' "$GEN_JSON.tmp" > "$GEN_JSON"
rm -f "$GEN_JSON.tmp"
echo "updated $GEN_JSON (label=$LABEL)"

"$LOAD_BIN" "--label=$LABEL" "--out=$TMP"
merge_run "$LOAD_JSON" bench_load "$TMP"

# Loading speedups: each run already carries its own load_speedup block
# (text parse vs the .opimg container); once a before/after pair exists,
# also derive the per-path after-vs-before ratios so format or loader
# changes are gated the same way as the engine paths.
jq 'if ([.runs[].label] | contains(["before", "after"])) then
      ((.runs[] | select(.label == "before")).timings_us) as $b
      | ((.runs[] | select(.label == "after")).timings_us) as $a
      | .speedup_after_vs_before = {
          text_parse_load: (($b.text_parse_load / $a.text_parse_load) * 100
                            | round / 100),
          opimg_mmap_cold: (($b.opimg_mmap_cold / $a.opimg_mmap_cold) * 100
                            | round / 100),
          opimg_mmap_warm: (($b.opimg_mmap_warm / $a.opimg_mmap_warm) * 100
                            | round / 100),
          opimg_heap_load: (($b.opimg_heap_load / $a.opimg_heap_load) * 100
                            | round / 100)
        }
    else . end' "$LOAD_JSON.tmp" > "$LOAD_JSON"
rm -f "$LOAD_JSON.tmp"
echo "updated $LOAD_JSON (label=$LABEL)"
