// Perf baseline for the RR-set engine hot paths: batch ingestion into an
// RRCollection, greedy / CELF seed selection (with and without the §5
// trace), and bound assembly. Emits one JSON object with median-of-R
// timings so scripts/run_perf_baseline.sh can track before/after numbers
// (BENCH_select_ingest.json).
//
//   ./build/bench/bench_select_ingest [--smoke] [--n=N] [--theta=T]
//       [--k=K] [--reps=R] [--seed=S] [--label=NAME] [--out=FILE]
//
// Sampling is excluded from the ingest timing: RR sets are materialized
// once up front and replayed into a fresh collection per rep, so the
// number isolates storage + inverted-index build cost exactly as an
// engine batch pays it.
//
// Seed plumbing: the RR-set stream is produced by a self-contained
// reference sampler (plain reverse BFS, one UniformDouble draw per
// examined in-edge) seeded by --seed, deliberately NOT the engine's
// sampling kernels — those change across releases, which is exactly how
// earlier shipped baselines ended up with diverging pool_nodes/checksum
// between the before and after labels. Two binaries from different
// releases given the same (n, theta, seed) now replay the identical
// stream; the config block records a pool checksum so the harness can
// verify that before comparing timings.
//
// The compression block reports the collection's compressed footprint
// against the raw uint32 bytes of the same members.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bounds/bounds.h"
#include "core/two_pool_engine.h"
#include "gen/generators.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "rrset/rr_collection.h"
#include "select/greedy.h"
#include "support/random.h"
#include "support/stopwatch.h"

namespace opim {
namespace {

struct Config {
  // n is deliberately large relative to θ's touched-node footprint: the
  // paper's regime (and the engine's doubling cadence) selects over
  // pools whose distinct members are a small fraction of the graph, and
  // the doubling replay below times selection in exactly that regime.
  uint32_t n = 300000;
  uint32_t edges_per_node = 10;
  uint64_t theta = 200000;
  uint32_t k = 50;
  int reps = 5;
  uint64_t seed = 7;
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
      cfg.theta = 4000;
      cfg.k = 8;
      cfg.reps = 2;
    } else if (ParseFlag(argv[i], "--n=", &v)) {
      cfg.n = static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (ParseFlag(argv[i], "--theta=", &v)) {
      cfg.theta = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--k=", &v)) {
      cfg.k = static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (ParseFlag(argv[i], "--reps=", &v)) {
      cfg.reps = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "--seed=", &v)) {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
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

/// Median of the collected per-rep timings, in microseconds.
double MedianUs(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2] * 1e6;
}

/// Times `fn` cfg.reps times and returns the median wall time in us.
template <typename Fn>
double TimeMedianUs(int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    samples.push_back(watch.ElapsedSeconds());
  }
  return MedianUs(std::move(samples));
}

/// Reference IC RR-set stream: uniform root, plain reverse BFS visiting
/// in-edges in CSR order with one UniformDouble() < p draw per edge.
/// Self-contained on purpose — the stream depends only on (graph, seed),
/// never on the engine's sampling kernels.
void ReferenceSampleStream(const Graph& g, uint64_t theta, uint64_t seed,
                           std::vector<NodeId>* pool,
                           std::vector<std::pair<uint32_t, uint64_t>>* sets) {
  const uint32_t n = g.num_nodes();
  Rng rng(seed, 0x62656e63ULL);  // "benc"
  std::vector<uint32_t> visited(n, 0);
  uint32_t stamp = 0;
  std::vector<NodeId> rr;
  for (uint64_t i = 0; i < theta; ++i) {
    ++stamp;
    rr.clear();
    const NodeId root = rng.UniformBelow(n);
    visited[root] = stamp;
    rr.push_back(root);
    uint64_t cost = 0;
    for (size_t head = 0; head < rr.size(); ++head) {
      const NodeId v = rr[head];
      const std::span<const NodeId> in = g.InNeighbors(v);
      const std::span<const double> p = g.InProbs(v);
      for (size_t e = 0; e < in.size(); ++e) {
        ++cost;
        if (rng.UniformDouble() < p[e] && visited[in[e]] != stamp) {
          visited[in[e]] = stamp;
          rr.push_back(in[e]);
        }
      }
    }
    sets->emplace_back(static_cast<uint32_t>(rr.size()), cost);
    pool->insert(pool->end(), rr.begin(), rr.end());
  }
}

/// FNV-1a over the pool node ids and per-set sizes: two runs replayed the
/// same stream iff this matches (what the before/after harness checks).
uint64_t PoolChecksum(const std::vector<NodeId>& pool,
                      const std::vector<std::pair<uint32_t, uint64_t>>& sets) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&](uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  for (NodeId v : pool) mix(v);
  for (const auto& [size, cost] : sets) mix(size);
  return h;
}

/// Encodes stream sets [from, to) — offsets[i] is where set i starts in
/// `pool` — into one compressed shard and ingests it into `c`: the
/// sort + compress + postings work a generation shard does, then the
/// shard-order merge an engine batch ends with.
void IngestSlice(RRCollection* c, const std::vector<NodeId>& pool,
                 const std::vector<std::pair<uint32_t, uint64_t>>& sets,
                 const std::vector<uint64_t>& offsets, size_t from,
                 size_t to) {
  ShardEncoder encoder;
  std::vector<NodeId> members;
  for (size_t i = from; i < to; ++i) {
    members.assign(pool.begin() + offsets[i], pool.begin() + offsets[i + 1]);
    encoder.Add(&members, sets[i].second);
  }
  std::vector<CompressedRRShard> shards;
  shards.push_back(encoder.Finish(c->num_nodes()));
  c->AddCompressedShards(std::move(shards));
}

int Run(const Config& cfg) {
  std::fprintf(
      stderr,
      "bench_select_ingest: n=%u theta=%llu k=%u reps=%d seed=%llu label=%s\n",
      cfg.n, static_cast<unsigned long long>(cfg.theta), cfg.k, cfg.reps,
      static_cast<unsigned long long>(cfg.seed), cfg.label.c_str());

  Graph g = GenerateBarabasiAlbert(cfg.n, cfg.edges_per_node);

  // Materialize the RR-set stream once (sampling excluded from timings):
  // one flat node pool plus per-set (size, cost), the exact shape the
  // generator's shard buffers have.
  std::vector<NodeId> pool;
  std::vector<std::pair<uint32_t, uint64_t>> sets;
  sets.reserve(cfg.theta);
  ReferenceSampleStream(g, cfg.theta, cfg.seed, &pool, &sets);
  const uint64_t pool_checksum = PoolChecksum(pool, sets);
  std::fprintf(stderr, "bench_select_ingest: pool=%zu nodes checksum=%llx\n",
               pool.size(), static_cast<unsigned long long>(pool_checksum));

  // --- Ingestion: replay the stream into a fresh collection via the
  // engine's shard path (sort + compress + shard postings + index
  // merge), so the timing covers what a generation shard and an engine
  // batch's ingest pay per batch.
  // Collections are configured exactly as the engines configure R1:
  // peak_rr_bytes below is the quantity RunOpimC / OnlineMaximizer meter
  // against a RunControl memory budget.
  std::vector<uint64_t> set_offsets(sets.size() + 1, 0);
  for (size_t i = 0; i < sets.size(); ++i) {
    set_offsets[i + 1] = set_offsets[i] + sets[i].first;
  }

  uint64_t ingest_sink = 0;
  double ingest_us = 0.0;
  {
    std::vector<double> samples;
    samples.reserve(static_cast<size_t>(cfg.reps));
    for (int r = 0; r < cfg.reps; ++r) {
      RRCollection fresh(cfg.n);
      Stopwatch watch;
      IngestSlice(&fresh, pool, sets, set_offsets, 0, sets.size());
      ingest_sink += fresh.CoveringCount(0);
      samples.push_back(watch.ElapsedSeconds());
    }
    ingest_us = MedianUs(std::move(samples));
  }

  // One persistent collection for the selection/bounds timings.
  RRCollection rr(cfg.n);
  IngestSlice(&rr, pool, sets, set_offsets, 0, sets.size());

  uint64_t select_sink = 0;
  const double greedy_us = TimeMedianUs(cfg.reps, [&] {
    select_sink += SelectGreedy(rr, cfg.k).coverage;
  });
  const double greedy_trace_us = TimeMedianUs(cfg.reps, [&] {
    select_sink += SelectGreedy(rr, cfg.k, {cfg.k}).coverage;
  });
  const double celf_us = TimeMedianUs(cfg.reps, [&] {
    select_sink += SelectGreedyCelf(rr, cfg.k).coverage;
  });
  // The gated selection timing: more reps than the others, since it is
  // the one number the regression gate reads from this block.
  const double celf_trace_us = TimeMedianUs(cfg.reps * 2 + 1, [&] {
    select_sink += SelectGreedyCelf(rr, cfg.k, {cfg.k}).coverage;
  });

  // The engines run a Λ2 coverage query every iteration; run one so the
  // footprint below includes the coverage scratch.
  const std::vector<NodeId> celf_seeds = SelectGreedyCelf(rr, cfg.k).seeds;
  select_sink += rr.CoverageOf(celf_seeds);

  // --- Bounds: trace-bound assembly from a cached greedy trace.
  GreedyResult traced = SelectGreedy(rr, cfg.k, {cfg.k});
  double bounds_sink = 0.0;
  const double bounds_us = TimeMedianUs(cfg.reps, [&] {
    for (int it = 0; it < 100; ++it) {
      bounds_sink +=
          SigmaUpper(BoundKind::kImproved, traced, rr.num_sets(), cfg.n, 0.01);
      bounds_sink +=
          SigmaUpper(BoundKind::kBasic, traced, rr.num_sets(), cfg.n, 0.01);
    }
  });

  // --- End-to-end engine path: sample + ingest as one engine batch into
  // R1 at one thread.
  uint64_t generate_sink = 0;
  const double generate_us = TimeMedianUs(cfg.reps, [&] {
    TwoPoolEngine engine(g, DiffusionModel::kIndependentCascade, {},
                         /*num_threads=*/1);
    engine.Stage(cfg.theta, /*seed1=*/11, 0, 0, nullptr,
                 /*speculative=*/false);
    engine.Merge(nullptr);
    generate_sink += engine.r1().total_size();
  });

  // --- Selection across a doubling run: the engine's actual cadence. The
  // stream is replayed as kDoublings batches (θ/256, then doubling up to
  // θ — matching the engine's small-θ0 start, where most selections run
  // over a pool that touches only a small fraction of n); after each
  // batch one traced CELF selection runs, starting from the pool's
  // maintained member counts. Only the selections are timed (ingest
  // excluded); the number is the min over reps of the summed selection
  // time — min, not median, because the quantity is a fixed amount of
  // work and the only variance is interference noise.
  constexpr int kDoublings = 9;
  std::vector<size_t> doubling_targets;
  for (int d = kDoublings - 1; d >= 0; --d) {
    const size_t target = std::max<size_t>(sets.size() >> d, 1);
    // Tiny streams (--smoke) collapse leading steps onto the same
    // target; keep each distinct target once.
    if (doubling_targets.empty() || target > doubling_targets.back()) {
      doubling_targets.push_back(target);
    }
  }
  uint64_t doubling_sink = 0;
  double doubling_us = 0.0;
  for (int r = 0; r < cfg.reps; ++r) {
    RRCollection c(cfg.n);
    double select_seconds = 0.0;
    std::vector<NodeId> final_seeds;
    size_t done = 0;
    for (size_t target : doubling_targets) {
      IngestSlice(&c, pool, sets, set_offsets, done, target);
      done = target;
      Stopwatch watch;
      GreedyResult result = SelectGreedyCelf(c, cfg.k, {cfg.k});
      select_seconds += watch.ElapsedSeconds();
      doubling_sink += result.coverage;
      final_seeds = std::move(result.seeds);
    }
    // The last doubling holds the whole stream, as `rr` does.
    if (final_seeds != celf_seeds) {
      std::fprintf(stderr, "FATAL: doubling/one-shot seed sets diverge\n");
      return 1;
    }
    if (r == 0 || select_seconds * 1e6 < doubling_us) {
      doubling_us = select_seconds * 1e6;
    }
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("label").Value(cfg.label);
  w.Key("config").BeginObject();
  w.Key("n").Value(static_cast<uint64_t>(cfg.n));
  w.Key("edges_per_node").Value(static_cast<uint64_t>(cfg.edges_per_node));
  w.Key("theta").Value(cfg.theta);
  w.Key("k").Value(static_cast<uint64_t>(cfg.k));
  w.Key("reps").Value(static_cast<int64_t>(cfg.reps));
  w.Key("seed").Value(cfg.seed);
  w.Key("pool_nodes").Value(static_cast<uint64_t>(pool.size()));
  w.Key("pool_checksum").Value(pool_checksum);
  w.EndObject();
  w.Key("timings_us").BeginObject();
  w.Key("ingest").Value(ingest_us);
  w.Key("select_greedy").Value(greedy_us);
  w.Key("select_greedy_trace").Value(greedy_trace_us);
  w.Key("select_celf").Value(celf_us);
  w.Key("select_celf_trace").Value(celf_trace_us);
  w.Key("bounds_x100").Value(bounds_us);
  w.Key("generate_ingest").Value(generate_us);
  // Keyed as in earlier baselines, when a from-scratch replay ran beside it.
  w.Key("select_doubling_incremental").Value(doubling_us);
  w.EndObject();
  // The doubling replay's schedule shape.
  w.Key("doubling").BeginObject();
  w.Key("doublings").Value(static_cast<uint64_t>(doubling_targets.size()));
  w.Key("theta_start").Value(static_cast<uint64_t>(doubling_targets.front()));
  w.Key("theta_final").Value(static_cast<uint64_t>(doubling_targets.back()));
  w.EndObject();
  // Storage: peak_rr_bytes is MemoryUsage(), what a RunControl memory
  // budget meters.
  w.Key("compression").BeginObject();
  w.Key("peak_rr_bytes").Value(rr.MemoryUsage());
  w.Key("compressed_member_bytes").Value(rr.CompressedMemberBytes());
  w.Key("raw_member_bytes").Value(rr.RawMemberBytes());
  w.EndObject();
  // The telemetry the acceptance criteria reference: per-phase counters
  // and timer sums recorded by the engine itself during the runs above.
  w.Key("telemetry").BeginObject();
  MetricsSnapshot snap = MetricsRegistry::Default().Snapshot();
  w.Key("counters").BeginObject();
  for (const CounterSample& c : snap.counters) {
    if (c.name.rfind("opim.select.", 0) == 0 ||
        c.name.rfind("opim.rrset.", 0) == 0 ||
        c.name.rfind("opim.pool.", 0) == 0) {
      w.Key(c.name).Value(c.value);
    }
  }
  w.EndObject();
  w.Key("timer_sums_us").BeginObject();
  for (const HistogramSample& h : snap.histograms) {
    if (h.name.rfind("opim.select.", 0) == 0 ||
        h.name.rfind("opim.rrset.", 0) == 0) {
      w.Key(h.name).Value(h.sum);
    }
  }
  w.EndObject();
  w.EndObject();
  // Sinks: keep the optimizer from dropping timed work.
  w.Key("checksum")
      .Value(ingest_sink + select_sink + generate_sink + doubling_sink +
             static_cast<uint64_t>(bounds_sink));
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
