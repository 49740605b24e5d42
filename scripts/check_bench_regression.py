#!/usr/bin/env python3
"""Gate perf changes against the committed RR-set engine baselines.

Compares freshly measured bench results against the checked-in artifacts
(BENCH_generate.json / BENCH_select_ingest.json) and fails when any
headline timing regressed by more than the threshold:

  bench_generate      timings_us: IC_kernel_1t, LT_kernel_1t,
                                  IC_generate_1t, LT_generate_1t,
                                  IC_generate_nt, LT_generate_nt
                      (the *_generate_nt pair is the pipelined-engine
                      headline: run-owned pool + cached sampling view at
                      the config's threads_n; baseline and fresh runs
                      must use the same --threads)
  bench_select_ingest timings_us: ingest, select_celf_trace,
                                  generate_ingest,
                                  select_doubling_incremental
  bench_load          timings_us: text_parse_load, opimg_mmap_cold,
                                  opimg_mmap_warm, opimg_heap_load
  bench_snapshot      timings_us: checkpoint_write, resume_load

Usage:
  check_bench_regression.py --baseline-generate BENCH_generate.json \
                            --fresh-generate fresh_gen.json \
                            --baseline-select BENCH_select_ingest.json \
                            --fresh-select fresh_sel.json \
                            --baseline-load BENCH_load.json \
                            --fresh-load fresh_load.json \
                            --baseline-snapshot BENCH_snapshot.json \
                            --fresh-snapshot fresh_snapshot.json \
                            [--threshold-pct 10] [--label after]

Any pair (generate / select / load / snapshot) may be given alone. Each file may be a
full artifact ({"benchmark": ..., "runs": [...]}, the committed shape) or
a single run object (the shape `bench_* --out=FILE` writes); for
artifacts, the run with the requested label is compared. Exit codes:
0 = within threshold, 1 = regression (or missing metric), 2 = usage.

bench_select_ingest replays a seeded reference RR stream, so the config
block's pool_checksum must match between baseline and fresh runs; a
mismatch means the two runs measured different workloads and is reported
as a warning (the timing comparison is then advisory).
"""

import argparse
import json
import sys

GENERATE_METRICS = [
    "IC_kernel_1t",
    "LT_kernel_1t",
    "IC_generate_1t",
    "LT_generate_1t",
    "IC_generate_nt",
    "LT_generate_nt",
]
SELECT_METRICS = [
    "ingest",
    "select_celf_trace",
    "generate_ingest",
    "select_doubling_incremental",
]
LOAD_METRICS = [
    "text_parse_load",
    "opimg_mmap_cold",
    "opimg_mmap_warm",
    "opimg_heap_load",
]
SNAPSHOT_METRICS = [
    "checkpoint_write",
    "resume_load",
]


def load_run(path, label):
    """Returns the labeled run object from an artifact, or the file's own
    run object when it is not an artifact."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if "runs" in doc:
        runs = [r for r in doc["runs"] if r.get("label") == label]
        if not runs:
            raise SystemExit(
                f"error: {path} has no run labeled {label!r} "
                f"(labels: {[r.get('label') for r in doc['runs']]})"
            )
        return runs[-1]
    return doc


def compare(name, baseline, fresh, metrics, threshold_pct, baseline_path):
    """Prints one line per metric; returns the list of failed metrics."""
    failures = []
    base_t = baseline.get("timings_us", {})
    fresh_t = fresh.get("timings_us", {})
    for metric in metrics:
        if metric not in base_t:
            # A gated metric absent from the committed artifact means the
            # baseline predates the metric (or the wrong file was passed);
            # silently skipping would let real regressions through.
            print(
                f"{name}.{metric}: FAIL (baseline {baseline_path} has no "
                f"timings_us[{metric!r}]; regenerate the artifact with "
                "scripts/run_perf_baseline.sh)"
            )
            failures.append(metric)
            continue
        if metric not in fresh_t:
            print(f"{name}.{metric}: FAIL (missing from fresh run)")
            failures.append(metric)
            continue
        base_us = float(base_t[metric])
        fresh_us = float(fresh_t[metric])
        if base_us <= 0:
            print(f"{name}.{metric}: SKIP (non-positive baseline)")
            continue
        delta_pct = (fresh_us - base_us) / base_us * 100.0
        verdict = "FAIL" if delta_pct > threshold_pct else "ok"
        print(
            f"{name}.{metric}: {base_us:.1f} -> {fresh_us:.1f} us "
            f"({delta_pct:+.1f}%) {verdict}"
        )
        if verdict == "FAIL":
            failures.append(metric)
    return failures


def warn_on_threads_mismatch(name, baseline, fresh):
    base_t = baseline.get("config", {}).get("threads_n")
    fresh_t = fresh.get("config", {}).get("threads_n")
    if base_t is not None and fresh_t is not None and base_t != fresh_t:
        print(
            f"warning: {name} threads_n mismatch ({base_t} vs {fresh_t}) — "
            "the *_generate_nt comparison measures different "
            "configurations; rerun the fresh bench with "
            f"--threads={base_t}",
            file=sys.stderr,
        )


def warn_on_checksum_mismatch(name, baseline, fresh):
    base_sum = baseline.get("config", {}).get("pool_checksum")
    fresh_sum = fresh.get("config", {}).get("pool_checksum")
    # Compare as doubles: the committed baseline passes through jq, which
    # stores all numbers as IEEE doubles and so rounds uint64 checksums;
    # a fresh run's exact integer rounds to the same double iff the
    # streams match, while genuinely different streams differ wildly.
    if base_sum is not None and fresh_sum is not None:
        base_sum, fresh_sum = float(base_sum), float(fresh_sum)
    if base_sum is not None and fresh_sum is not None and base_sum != fresh_sum:
        print(
            f"warning: {name} pool_checksum mismatch "
            f"({base_sum} vs {fresh_sum}) — runs measured different "
            "RR streams; timings are not directly comparable",
            file=sys.stderr,
        )


def main():
    parser = argparse.ArgumentParser(
        description="Compare fresh bench timings against committed baselines."
    )
    parser.add_argument("--baseline-generate")
    parser.add_argument("--fresh-generate")
    parser.add_argument("--baseline-select")
    parser.add_argument("--fresh-select")
    parser.add_argument("--baseline-load")
    parser.add_argument("--fresh-load")
    parser.add_argument("--baseline-snapshot")
    parser.add_argument("--fresh-snapshot")
    parser.add_argument("--threshold-pct", type=float, default=10.0)
    parser.add_argument("--label", default="after")
    args = parser.parse_args()

    pairs = []
    if bool(args.baseline_generate) != bool(args.fresh_generate):
        parser.error("--baseline-generate and --fresh-generate go together")
    if bool(args.baseline_select) != bool(args.fresh_select):
        parser.error("--baseline-select and --fresh-select go together")
    if bool(args.baseline_load) != bool(args.fresh_load):
        parser.error("--baseline-load and --fresh-load go together")
    if bool(args.baseline_snapshot) != bool(args.fresh_snapshot):
        parser.error("--baseline-snapshot and --fresh-snapshot go together")
    if args.baseline_generate:
        pairs.append(
            (
                "generate",
                args.baseline_generate,
                args.fresh_generate,
                GENERATE_METRICS,
            )
        )
    if args.baseline_select:
        pairs.append(
            ("select", args.baseline_select, args.fresh_select, SELECT_METRICS)
        )
    if args.baseline_load:
        pairs.append(
            ("load", args.baseline_load, args.fresh_load, LOAD_METRICS)
        )
    if args.baseline_snapshot:
        pairs.append(
            (
                "snapshot",
                args.baseline_snapshot,
                args.fresh_snapshot,
                SNAPSHOT_METRICS,
            )
        )
    if not pairs:
        parser.error("give at least one baseline/fresh pair")

    all_failures = []
    for name, baseline_path, fresh_path, metrics in pairs:
        baseline = load_run(baseline_path, args.label)
        fresh = load_run(fresh_path, args.label)
        warn_on_checksum_mismatch(name, baseline, fresh)
        if name == "generate":
            warn_on_threads_mismatch(name, baseline, fresh)
        failed = compare(name, baseline, fresh, metrics,
                         args.threshold_pct, baseline_path)
        all_failures += [f"{name}.{m}" for m in failed]

    if all_failures:
        print(
            f"bench regression: {len(all_failures)} metric(s) slower than "
            f"baseline by more than {args.threshold_pct:g}%: "
            + ", ".join(all_failures),
            file=sys.stderr,
        )
        return 1
    print(f"bench regression check: ok (threshold {args.threshold_pct:g}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
