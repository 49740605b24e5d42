#!/usr/bin/env python3
"""End-to-end benchmark for OPIM-C requests and online OPIM sessions.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the library and the native driver (perfbench/CMakeLists.txt) from
source, generates the workload's graph from --seed (cached as .opimg),
runs the workload in its own process, checks every answer, prints a
report, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(BENCHMARK.json lists both). Exit status: 0 when every check passed,
1 when an answer failed a check, 2 when the benchmark could not run.
See perfbench/README.md for the workloads and the metric definitions.
"""

import argparse
import json
import os
import shutil
import statistics
import struct
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# dataset/scale feed MakeDataset; the rest are RunOpimC / OnlineMaximizer
# arguments. `spread_samples` is the number of Monte-Carlo cascades of the
# once-per-run spread check: LT cascades on twitter-sim reach ~3/4 of the
# graph, so 10 000 of them would take minutes; 100 keep the check strong
# (its margin there is ~20 000 nodes against a stderr of ~600).
# `graph_seed`, where set, fixes the graph and leaves --seed to the request
# seeds: an online session runs until α is reached, and the rounds that
# takes move with the BA graph (21-25 over ten graph seeds), which would
# swing the latency between runs by ±15 %.
WORKLOADS = {
    "batch-ba-ic": dict(dataset="pokec-sim", scale=17, mode="batch",
                        model="ic", k=50, eps=0.1, threads=4,
                        spread_samples=10000),
    "batch-rmat-lt": dict(dataset="twitter-sim", scale=17, mode="batch",
                          model="lt", k=50, eps=0.1, threads=4,
                          spread_samples=100),
    "online-ba-ic": dict(dataset="pokec-sim", scale=16, mode="online",
                         model="ic", k=50, eps=0.1, threads=1,
                         spread_samples=10000, graph_seed=1),
}

# Generated graphs kept on disk (least recently used evicted first); a
# scale-17 R-MAT graph is ~225 MB.
MAX_CACHED_GRAPHS = 4

MIB = float(1 << 20)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    """Reports a run that could not start or finish, and exits with 2."""
    log(f"perfbench: {msg}")
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures (once) and builds the driver and report_lint."""
    out.mkdir(parents=True, exist_ok=True)
    build_log = out / "build.log"
    cmds = []
    if not (out / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", str(HERE), "-B", str(out)] + gen)
    jobs = str(min(4, os.cpu_count() or 1))
    cmds.append(["cmake", "--build", str(out), "-j", jobs, "--target",
                 "opim_perfbench", "report_lint"])
    with open(build_log, "w") as logf:
        for cmd in cmds:
            if subprocess.call(cmd, cwd=ROOT, stdout=logf,
                               stderr=subprocess.STDOUT) != 0:
                logf.flush()
                tail = build_log.read_text(errors="replace").splitlines()
                log("\n".join(tail[-30:]))
                fail(f"build failed (see {build_log})")
    return out / "opim_perfbench", out / "opim" / "tools" / "report_lint"


def read_fingerprint(path):
    """(n, m, payload checksum) from an .opimg header."""
    with open(path, "rb") as f:
        header = f.read(48)
    if len(header) != 48 or header[:8] != b"OPIMG\0v1":
        fail(f"{path} is not an .opimg file")
    n, = struct.unpack_from("<I", header, 16)
    m, _, checksum = struct.unpack_from("<QQQ", header, 24)
    return {"n": n, "m": m, "payload_checksum": f"{checksum:016x}"}


def ensure_graph(driver, out, spec, seed):
    """The workload's graph for `seed`, generated once and cached."""
    seed = spec.get("graph_seed", seed)
    cache = out / "inputs"
    cache.mkdir(parents=True, exist_ok=True)
    path = cache / f"{spec['dataset']}-s{spec['scale']}-seed{seed}.opimg"
    if path.exists():
        os.utime(path)
    else:
        cached = sorted(cache.glob("*.opimg"), key=lambda p: p.stat().st_mtime)
        for old in cached[:max(0, len(cached) - MAX_CACHED_GRAPHS + 1)]:
            old.unlink()
        tmp = path.with_suffix(".tmp")
        rc = subprocess.call([str(driver), "gen", f"--dataset={spec['dataset']}",
                              f"--scale={spec['scale']}", f"--seed={seed}",
                              f"--out={tmp}"], cwd=ROOT)
        if rc != 0:
            fail("graph generation failed")
        # Flush the new file now, so that its write-back does not overlap
        # the timed window.
        with open(tmp, "rb") as f:
            os.fsync(f.fileno())
        os.replace(tmp, path)
    return path


def percentile(values, q):
    """Linear-interpolated q-quantile (0 <= q <= 1) of `values`."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(report, failed, attempted):
    walls = [r["wall_ms"] for r in report["requests"]]
    # The error rate as its complement: a metric must never read 0, and a
    # clean run has no errors. The failure counts themselves are in the
    # result's "failed" / "attempted".
    return {
        "request_ms_p50": (percentile(walls, 0.5), "ms"),
        "request_ms_p80": (percentile(walls, 0.8), "ms"),
        "cpu_ms_per_request": (report["window_cpu_s"] * 1e3 / len(walls), "ms"),
        "peak_rss_mb": (report["peak_rss_bytes"] / MIB, "MiB"),
        "setup_s": (report["setup_s"], "s"),
        "success_rate": (1.0 - ratio(failed, attempted), "frac"),
    }


def per_layer(report, spec):
    traced = [r for r in report["requests"] if r["traced"]]
    untraced = [r for r in report["requests"] if not r["traced"]]
    online = spec["mode"] == "online"
    ref = report["reference"]

    def mean(f):
        return sum(f(r) for r in traced) / len(traced)

    def total(f):
        return sum(f(r) for r in traced)

    def delta(name):
        return lambda r: r["deltas"].get(name, 0.0)

    def phase(name):
        return lambda r: r["phases_ms"].get(name, 0.0)

    if online:
        generate = phase("advance")
        celf = lambda r: delta("opim.select.celf_us")(r) / 1e3
        # Each QueryAll rebuilds both pools' indexes: R1's inside CELF
        # (already in celf_us), R2's in its coverage count. The registry
        # times both under one name, so R2's rebuild cannot be taken out
        # of the rest of the query exactly and stays in bounds.ms.
        bounds = lambda r: phase("query")(r) - celf(r)
        attributed = lambda r: (phase("ctor")(r) + phase("advance")(r)
                                + phase("query")(r))
        # Serial Advance has no shards: its rate is over the Advance span.
        kernel_us = total(lambda r: phase("advance")(r) * 1e3)
    else:
        generate = phase("generate")
        celf = phase("greedy")
        bounds = phase("bounds")
        attributed = lambda r: generate(r) + celf(r) + bounds(r)
        kernel_us = total(delta("opim.rrset.shard_us"))

    used = total(lambda r: r["speculative_used"])
    discarded = total(lambda r: r["speculative_discarded"])
    hits = total(delta("opim.select.warm_start_hits"))
    fallbacks = total(delta("opim.select.warm_start_fallbacks"))
    walls_t = [r["wall_ms"] for r in traced]
    walls_u = [r["wall_ms"] for r in untraced]
    return {
        "graph.view_build_ms": (statistics.median(report["view_build_ms"]), "ms"),
        "graph.view_mb": (report["view_bytes"] / MIB, "MiB"),
        "rrset.generate_ms": (mean(generate), "ms"),
        "rrset.sets_per_request": (ref["sets"], "count"),
        "rrset.members_per_request": (ref["members"], "count"),
        "rrset.edges_per_us": (
            ratio(total(delta("opim.rrset.edges_examined")), kernel_us),
            "edges/us"),
        "rrset.ingest_ms": (mean(delta("opim.rrset.ingest_us")) / 1e3, "ms"),
        "rrset.index_merge_ms": (
            mean(delta("opim.rrset.index_merge_us")) / 1e3, "ms"),
        "rrset.index_rebuild_ms": (
            mean(delta("opim.rrset.index_rebuild_us")) / 1e3, "ms"),
        "rrset.bytes_per_member": (
            ratio(total(lambda r: r["compressed_bytes"]),
                  total(lambda r: r["members"])), "B/member"),
        "rrset.speculation_useful_frac": (ratio(used, used + discarded), "frac"),
        "select.celf_ms": (mean(celf), "ms"),
        "select.rescans_per_pop": (
            ratio(total(delta("opim.select.celf_rescans")),
                  total(delta("opim.select.celf_pops"))), "count"),
        "select.words_scanned": (mean(delta("opim.select.words_scanned")),
                                 "count"),
        "select.warm_start_hit_frac": (ratio(hits, hits + fallbacks), "frac"),
        "bounds.ms": (mean(bounds), "ms"),
        "core.iterations": (0 if online else ref["iterations"], "count"),
        "core.rounds": (ref["rounds"] if online else 0, "count"),
        "core.advance_ms": (mean(phase("advance")), "ms"),
        "core.query_ms": (mean(phase("query")), "ms"),
        "core.unattributed_ms": (mean(lambda r: r["wall_ms"] - attributed(r)),
                                 "ms"),
        "support.pool_idle_wait_ms": (
            mean(delta("opim.pool.idle_wait_us")) / 1e3, "ms"),
        "support.pool_queue_wait_ms": (
            mean(delta("opim.pool.queue_wait_us")) / 1e3, "ms"),
        "support.parallel_efficiency": (
            ratio(total(lambda r: r["cpu_ms"]),
                  total(lambda r: r["wall_ms"]) * report["fingerprint"]["threads"]),
            "frac"),
        "trace_overhead_frac": (
            statistics.median(walls_t) / statistics.median(walls_u) - 1.0,
            "frac"),
    }


def print_report(name, spec, graph_fp, report, metrics, failed, attempted):
    fp = report["fingerprint"]
    print(f"workload {name}: {spec['dataset']} scale {spec['scale']} "
          f"(n={graph_fp['n']} m={graph_fp['m']} "
          f"checksum={graph_fp['payload_checksum']}), {spec['model'].upper()}, "
          f"k={spec['k']} eps={spec['eps']} threads={fp['threads']}, "
          f"{spec['mode']}")
    print("host/build: " + " ".join(f"{k}={v}" for k, v in fp.items()))
    walls = [r["wall_ms"] for r in report["requests"]]
    print(f"timed requests: {len(walls)} in {report['window_s']:.2f} s "
          f"(closed loop, 1 client, {report['warmup']} warm-up), "
          f"error_rate={ratio(failed, attempted):.4f} "
          f"({failed}/{attempted})")
    sp = report["spread"]
    print(f"checks: deterministic={report['deterministic']} "
          f"spread: MC {sp['mean']:.2f} + 3*{sp['stderr']:.2f} >= "
          f"sigma_l {sp['sigma_lower']:.2f} over {sp['samples']} cascades: "
          f"{sp['ok']}")
    width = max(len(k) for k in metrics)
    for key, (value, unit) in metrics.items():
        print(f"  {key:<{width}}  {value:>14.6g} {unit}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Graph scale override for perfbench/selftest.py.
    ap.add_argument("--scale", type=int, default=None)
    args = ap.parse_args()

    spec = dict(WORKLOADS[args.workload])
    if args.scale is not None:
        spec["scale"] = args.scale
    out = build_dir()
    driver, report_lint = build(out)
    graph = ensure_graph(driver, out, spec, args.seed)
    graph_fp = read_fingerprint(graph)

    runs = out / "runs"
    runs.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report_path = runs / f"{stem}.json"
    trace_path = runs / f"{stem}.spans.json"
    report_path.unlink(missing_ok=True)
    cmd = [str(driver), "run", f"--workload={args.workload}",
           f"--graph={graph}", f"--mode={spec['mode']}",
           f"--model={spec['model']}", f"--k={spec['k']}",
           f"--eps={spec['eps']}", f"--threads={spec['threads']}",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--spread-samples={spec['spread_samples']}",
           f"--trace={args.trace}", f"--trace-out={trace_path}",
           f"--out={report_path}"]
    rc = subprocess.call(cmd, cwd=ROOT)
    if rc not in (0, 1) or not report_path.exists():
        fail(f"driver exited with {rc}")
    report = json.loads(report_path.read_text())

    attempted = report["attempted"]
    failed = report["failed"]
    if args.trace:
        lint = subprocess.run([str(report_lint), f"--trace-json={trace_path}"],
                              cwd=ROOT, capture_output=True, text=True)
        attempted += 1
        if lint.returncode != 0:
            failed += 1
            log(lint.stdout + lint.stderr)
        metrics = per_layer(report, spec)
    else:
        metrics = end_to_end(report, failed, attempted)

    print_report(args.workload, spec, graph_fp, report, metrics, failed,
                 attempted)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
