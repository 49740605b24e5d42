// Perf baseline for the crash-safe .opimss checkpoint path
// (rrset/snapshot.h): what one checkpoint costs a doubling iteration,
// and what a --resume pays at startup. Emits one JSON object so
// scripts/check_bench_regression.py can track before/after numbers
// (BENCH_snapshot.json).
//
// Timed configurations (min over reps; the pools are a realistic
// two-pool OPIM-C state, both pools filled by one engine stage):
//   checkpoint_write — SaveSnapshot of both pools: payload assembly,
//                      FNV-1a checksum, write-to-temp + fsync + rename.
//                      This is the per-cadence overhead a run with
//                      --checkpoint-dir pays at an iteration boundary.
//   resume_load      — LoadSnapshot of the same container: the strict
//                      validation path (checksum scan + per-set checked
//                      decode) plus pool reassembly. This is the
//                      --resume startup cost.
// Derived: checkpoint_mb_s / resume_mb_s, container bytes over wall
// time — the numbers to watch when the codec or validator changes.
//
//   ./build/bench/bench_snapshot [--smoke] [--sets=N] [--reps=R]
//       [--label=NAME] [--out=FILE]

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/two_pool_engine.h"
#include "gen/generators.h"
#include "graph/graph.h"
#include "obs/json.h"
#include "rrset/rr_collection.h"
#include "rrset/snapshot.h"
#include "support/stopwatch.h"

namespace opim {
namespace {

struct Config {
  uint32_t n = 100000;
  uint64_t sets_per_pool = 1 << 18;  // 256k sets per pool
  int reps = 5;
  std::string label = "run";
  std::string out;  // empty = stdout only
};

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  *value = arg + len;
  return true;
}

Config ParseArgs(int argc, char** argv) {
  Config cfg;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      cfg.n = 20000;
      cfg.sets_per_pool = 1 << 15;
      cfg.reps = 3;
    } else if (ParseFlag(argv[i], "--sets=", &v)) {
      cfg.sets_per_pool = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--n=", &v)) {
      cfg.n = static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (ParseFlag(argv[i], "--reps=", &v)) {
      cfg.reps = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "--label=", &v)) {
      cfg.label = v;
    } else if (ParseFlag(argv[i], "--out=", &v)) {
      cfg.out = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::exit(2);
    }
  }
  return cfg;
}

/// Minimum wall time in us over `reps` runs (same estimator rationale as
/// bench_generate: interference on shared hosts is one-sided).
template <typename Fn>
double TimeMinUs(int reps, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    const double s = watch.ElapsedSeconds();
    if (r == 0 || s < best) best = s;
  }
  return best * 1e6;
}

int Run(const Config& cfg) {
  std::fprintf(stderr, "bench_snapshot: n=%u sets/pool=%llu reps=%d label=%s\n",
               cfg.n, static_cast<unsigned long long>(cfg.sets_per_pool),
               cfg.reps, cfg.label.c_str());

  const Graph g = GenerateBarabasiAlbert(cfg.n, 10);
  TwoPoolEngine engine(g, DiffusionModel::kIndependentCascade, {},
                       /*num_threads=*/0);
  engine.Stage(cfg.sets_per_pool, /*seed1=*/1, cfg.sets_per_pool,
               /*seed2=*/2, nullptr, /*speculative=*/false);
  engine.Merge(nullptr);
  const RRCollection& r1 = engine.r1();
  const RRCollection& r2 = engine.r2();

  SnapshotRunState rs;
  rs.run_seed = 1;
  rs.batch_counter = 4;
  rs.graph_nodes = g.num_nodes();
  rs.graph_edges = g.num_edges();
  rs.eps = 0.1;
  rs.delta = 0.01;
  rs.next_iteration = 3;
  rs.num_threads = 1;
  rs.k = 50;

  const std::string path =
      "/tmp/bench_snapshot_" + std::to_string(::getpid()) + ".opimss";
  uint64_t snapshot_bytes = 0;
  const double write_us = TimeMinUs(cfg.reps, [&] {
    auto written = SaveSnapshot(rs, r1, r2, path);
    if (!written.ok()) {
      std::fprintf(stderr, "bench_snapshot: save failed: %s\n",
                   written.status().ToString().c_str());
      std::exit(1);
    }
    snapshot_bytes = written.ValueOrDie();
  });

  uint64_t sink = 0;
  const double load_us = TimeMinUs(cfg.reps, [&] {
    auto snap = LoadSnapshot(path);
    if (!snap.ok()) {
      std::fprintf(stderr, "bench_snapshot: load failed: %s\n",
                   snap.status().ToString().c_str());
      std::exit(1);
    }
    sink += snap.ValueOrDie().r1.num_sets() + snap.ValueOrDie().r2.total_size();
  });
  std::remove(path.c_str());

  const double mb = static_cast<double>(snapshot_bytes) / (1024.0 * 1024.0);
  JsonWriter w;
  w.BeginObject();
  w.Key("label").Value(cfg.label);
  w.Key("config").BeginObject();
  w.Key("n").Value(static_cast<uint64_t>(cfg.n));
  w.Key("sets_per_pool").Value(cfg.sets_per_pool);
  w.Key("reps").Value(static_cast<int64_t>(cfg.reps));
  w.Key("snapshot_bytes").Value(snapshot_bytes);
  w.Key("pool_members").Value(r1.total_size() + r2.total_size());
  w.EndObject();
  w.Key("timings_us").BeginObject();
  w.Key("checkpoint_write").Value(write_us);
  w.Key("resume_load").Value(load_us);
  w.EndObject();
  w.Key("throughput_mb_s").BeginObject();
  w.Key("checkpoint_write").Value(mb / (write_us * 1e-6));
  w.Key("resume_load").Value(mb / (load_us * 1e-6));
  w.EndObject();
  w.Key("checksum").Value(sink);
  w.EndObject();

  std::fprintf(stderr,
               "bench_snapshot: %.1f MiB container, write=%.0fus "
               "(%.0f MB/s) load=%.0fus (%.0f MB/s)\n",
               mb, write_us, mb / (write_us * 1e-6), load_us,
               mb / (load_us * 1e-6));

  std::printf("%s\n", w.str().c_str());
  if (!cfg.out.empty()) {
    std::FILE* f = std::fopen(cfg.out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", cfg.out.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", w.str().c_str());
    std::fclose(f);
  }
  return 0;
}

}  // namespace
}  // namespace opim

int main(int argc, char** argv) {
  return opim::Run(opim::ParseArgs(argc, argv));
}
