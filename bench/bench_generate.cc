// Perf baseline for RR-set *generation*: the sampling kernel itself (a
// serial SampleInto loop, no collection) and the end-to-end
// ParallelGenerate path (sample + ingest), for both diffusion models under
// weighted-cascade weights at 1 and N threads. Emits one JSON object
// (median-of-R kernel timings, min-of-R end-to-end timings) so
// scripts/run_perf_baseline.sh can track before/after numbers
// (BENCH_generate.json).
//
// Two end-to-end configurations:
//   *_generate_1t — cold path: per-call SamplingView build + temporary
//                   pool, the historical headline (comparable across all
//                   committed baseline labels).
//   *_generate_nt — engine path at `threads_n` threads: run-owned pool
//                   and cached SamplingView, i.e. exactly what RunOpimC
//                   pays per doubling (view and pool amortize across the
//                   run). Falls back to the 1t number when threads_n == 1.
// Each end-to-end run also reports an ingest-phase breakdown
// (ingest_breakdown_us) assembled from telemetry histogram deltas:
// sample+fused sort/compress in the workers (opim.rrset.shard_us),
// ingestion assembly (opim.rrset.ingest_us) and the index merge/rebuild
// inside it. Zeros in OPIM_TELEMETRY=OFF builds.
//
//   ./build/bench/bench_generate [--smoke] [--n=N] [--theta=T] [--reps=R]
//       [--threads=T] [--label=NAME] [--out=FILE]
//
// `IC_kernel_1t` / `LT_kernel_1t` are pure per-sample cost (RNG draws,
// threshold compares, walk steps) on the n=100k weighted-cascade config;
// `*_view_build` is one serial SamplingView construction.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "gen/generators.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "rrset/parallel_generate.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_sampler.h"
#include "support/random.h"
#include "support/stopwatch.h"
#include "support/thread_pool.h"

namespace opim {
namespace {

struct Config {
  uint32_t n = 100000;
  uint32_t edges_per_node = 10;
  uint64_t theta = 200000;
  int reps = 5;
  unsigned threads = 0;  // 0 = hardware default
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
      cfg.n = 2000;
      cfg.edges_per_node = 5;
      cfg.theta = 5000;
      cfg.reps = 2;
    } else if (ParseFlag(argv[i], "--n=", &v)) {
      cfg.n = static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (ParseFlag(argv[i], "--theta=", &v)) {
      cfg.theta = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--reps=", &v)) {
      cfg.reps = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "--threads=", &v)) {
      cfg.threads = static_cast<unsigned>(std::strtoul(v.c_str(), nullptr, 10));
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

/// Times `fn` `reps` times and returns the MINIMUM wall time in us. Used
/// for the end-to-end engine timings: on shared/virtualized hosts the
/// interference distribution is one-sided (runs only ever get slower), so
/// the minimum is the stable estimator of the code's true cost — medians
/// of small R swing with whatever the neighbors were doing that minute.
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

/// Sum of the named histogram in a snapshot (0 when absent, e.g. in
/// OPIM_TELEMETRY=OFF builds).
double HistSum(const MetricsSnapshot& s, const char* name) {
  const HistogramSample* h = s.FindHistogram(name);
  return h == nullptr ? 0.0 : static_cast<double>(h->sum);
}

/// Per-rep average of each generation stage between two registry
/// snapshots: sampling + fused sort/compress inside the workers, total
/// ingestion (assembly + index), and the index merge/rebuild alone.
struct StageBreakdown {
  double sample_sort_compress_us = 0.0;
  double ingest_us = 0.0;
  double index_us = 0.0;
};

StageBreakdown BreakdownBetween(const MetricsSnapshot& before,
                                const MetricsSnapshot& after, int reps) {
  StageBreakdown b;
  const double r = static_cast<double>(reps);
  b.sample_sort_compress_us =
      (HistSum(after, "opim.rrset.shard_us") -
       HistSum(before, "opim.rrset.shard_us")) / r;
  b.ingest_us = (HistSum(after, "opim.rrset.ingest_us") -
                 HistSum(before, "opim.rrset.ingest_us")) / r;
  b.index_us = (HistSum(after, "opim.rrset.index_merge_us") -
                HistSum(before, "opim.rrset.index_merge_us") +
                HistSum(after, "opim.rrset.index_rebuild_us") -
                HistSum(before, "opim.rrset.index_rebuild_us")) / r;
  return b;
}

/// Times `fn` `reps` times and returns the MEDIAN wall time in us: the
/// kernel loop is long and allocation-free, so its spread is symmetric
/// and the median is the stable estimator.
template <typename Fn>
double TimeMedianUs(int reps, Fn&& fn) {
  std::vector<double> seconds;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    seconds.push_back(watch.ElapsedSeconds());
  }
  std::sort(seconds.begin(), seconds.end());
  return seconds[seconds.size() / 2] * 1e6;
}

int Run(const Config& cfg) {
  const unsigned nt = ThreadPool::ResolveThreadCount(cfg.threads);
  std::fprintf(stderr,
               "bench_generate: n=%u theta=%llu reps=%d threads=%u label=%s\n",
               cfg.n, static_cast<unsigned long long>(cfg.theta), cfg.reps,
               nt, cfg.label.c_str());

  // Weighted-cascade weights: the paper's experimental setting (§8.1).
  Graph g = GenerateBarabasiAlbert(cfg.n, cfg.edges_per_node);

  JsonWriter w;
  w.BeginObject();
  w.Key("label").Value(cfg.label);
  w.Key("config").BeginObject();
  w.Key("n").Value(static_cast<uint64_t>(cfg.n));
  w.Key("edges_per_node").Value(static_cast<uint64_t>(cfg.edges_per_node));
  w.Key("theta").Value(cfg.theta);
  w.Key("reps").Value(static_cast<int64_t>(cfg.reps));
  w.Key("threads_n").Value(static_cast<uint64_t>(nt));
  w.EndObject();

  uint64_t sink = 0;
  std::vector<std::pair<std::string, double>> timings;
  std::vector<std::pair<std::string, StageBreakdown>> breakdowns;
  for (DiffusionModel model : {DiffusionModel::kIndependentCascade,
                               DiffusionModel::kLinearThreshold}) {
    const char* tag = DiffusionModelName(model);

    // Kernel: serial SampleInto loop, sampler constructed outside the
    // timed region (preprocessing is amortized across doublings in the
    // engine), no collection involved. The sampler is held by concrete
    // type, so the loop pays no vtable dispatch.
    const bool is_ic = model == DiffusionModel::kIndependentCascade;
    std::optional<IcRRSampler> ic_sampler;
    std::optional<LtRRSampler> lt_sampler;
    if (is_ic) {
      ic_sampler.emplace(g);
    } else {
      lt_sampler.emplace(g);
    }
    const double kernel_us = TimeMedianUs(cfg.reps, [&] {
      Rng rng(101);
      std::vector<NodeId> scratch;
      for (uint64_t i = 0; i < cfg.theta; ++i) {
        sink += is_ic ? ic_sampler->SampleInto(rng, &scratch)
                      : lt_sampler->SampleInto(rng, &scratch);
        sink += scratch.size();
      }
    });
    timings.emplace_back(std::string(tag) + "_kernel_1t", kernel_us);

    // Cold end-to-end path at 1 thread: per-call SamplingView build +
    // temporary pool + sampling + ingestion + index build. The historical
    // headline, comparable across every committed baseline label.
    MetricsSnapshot snap0 = MetricsRegistry::Default().Snapshot();
    const double gen1_us = TimeMinUs(cfg.reps, [&] {
      RRCollection rr(cfg.n);
      ParallelGenerate(g, model, &rr, cfg.theta, /*seed=*/11,
                       /*num_threads=*/1);
      sink += rr.total_size();
    });
    timings.emplace_back(std::string(tag) + "_generate_1t", gen1_us);
    MetricsSnapshot snap1 = MetricsRegistry::Default().Snapshot();
    breakdowns.emplace_back(std::string(tag) + "_1t",
                            BreakdownBetween(snap0, snap1, cfg.reps));

    // Engine end-to-end path at `nt` threads: run-owned pool and cached
    // SamplingView (both built outside the timed region), matching what
    // RunOpimC pays per doubling once the run is set up. The view build
    // it amortizes is reported separately below.
    Stopwatch view_watch;
    const SamplingView cached_view(g, SamplingViewPartsFor(model));
    timings.emplace_back(std::string(tag) + "_view_build",
                         view_watch.ElapsedSeconds() * 1e6);
    double genN_us = gen1_us;
    StageBreakdown bn = breakdowns.back().second;
    if (nt > 1) {
      ThreadPool pool(nt);
      genN_us = TimeMinUs(cfg.reps, [&] {
        RRCollection rr(cfg.n);
        ParallelGenerate(g, model, &rr, cfg.theta, /*seed=*/11,
                         /*num_threads=*/nt, {}, &pool, &cached_view);
        sink += rr.total_size();
      });
      bn = BreakdownBetween(snap1, MetricsRegistry::Default().Snapshot(),
                            cfg.reps);
    }
    timings.emplace_back(std::string(tag) + "_generate_nt", genN_us);
    breakdowns.emplace_back(std::string(tag) + "_nt", bn);

    std::fprintf(stderr,
                 "bench_generate: %s kernel_1t=%.0fus generate_1t=%.0fus "
                 "generate_%ut=%.0fus (sample+compress=%.0fus "
                 "ingest=%.0fus index=%.0fus)\n",
                 tag, kernel_us, gen1_us, nt, genN_us,
                 bn.sample_sort_compress_us, bn.ingest_us, bn.index_us);
  }

  w.Key("timings_us").BeginObject();
  for (const auto& [key, us] : timings) w.Key(key).Value(us);
  w.EndObject();
  // Per-rep stage timings of each end-to-end configuration, from
  // telemetry histogram deltas (all zeros when OPIM_TELEMETRY=OFF):
  // sample_sort_compress_us is the in-worker shard loop (sampling with
  // the fused sort + group-varint encode), ingest_us the ingestion
  // (assembly + index), index_us the index merge/rebuild inside it.
  w.Key("ingest_breakdown_us").BeginObject();
  for (const auto& [key, b] : breakdowns) {
    w.Key(key).BeginObject();
    w.Key("sample_sort_compress").Value(b.sample_sort_compress_us);
    w.Key("ingest").Value(b.ingest_us);
    w.Key("index").Value(b.index_us);
    w.EndObject();
  }
  w.EndObject();
  w.Key("throughput_sets_per_s").BeginObject();
  for (const auto& [key, us] : timings) {
    if (key.ends_with("_view_build")) continue;  // one-shot, not per-set
    w.Key(key).Value(static_cast<double>(cfg.theta) * 1e6 / us);
  }
  w.EndObject();
  w.Key("checksum").Value(sink);
  w.EndObject();

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
