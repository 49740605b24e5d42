// Google-benchmark micro-benchmarks for the hot components: RR-set
// sampling under IC and LT, greedy selection (destructive vs CELF —
// the DESIGN.md ablation of the selection strategy), coverage queries,
// alias-table construction/sampling, and forward cascade simulation.
//
//   ./build/bench/bench_micro_components [--benchmark_filter=...]

#include <benchmark/benchmark.h>

#include "diffusion/cascade.h"
#include "gen/generators.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_sampler.h"
#include "select/greedy.h"
#include "support/alias_sampler.h"
#include "support/random.h"

namespace opim {
namespace {

const Graph& BenchGraph() {
  static Graph g = GenerateBarabasiAlbert(1u << 14, 12);
  return g;
}

void BM_SampleRRSetIC(benchmark::State& state) {
  IcRRSampler sampler(BenchGraph());
  Rng rng(1);
  std::vector<NodeId> out;
  uint64_t nodes = 0;
  for (auto _ : state) {
    sampler.SampleInto(rng, &out);
    nodes += out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["avg_rr_size"] =
      static_cast<double>(nodes) / state.iterations();
}
BENCHMARK(BM_SampleRRSetIC);

void BM_SampleRRSetLT(benchmark::State& state) {
  LtRRSampler sampler(BenchGraph());
  Rng rng(1);
  std::vector<NodeId> out;
  uint64_t nodes = 0;
  for (auto _ : state) {
    sampler.SampleInto(rng, &out);
    nodes += out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["avg_rr_size"] =
      static_cast<double>(nodes) / state.iterations();
}
BENCHMARK(BM_SampleRRSetLT);

RRCollection MakeBenchCollection(uint32_t num_sets) {
  const Graph& g = BenchGraph();
  RRCollection rr(g.num_nodes());
  IcRRSampler sampler(g);
  Rng rng(2);
  sampler.Generate(&rr, num_sets, rng);
  return rr;
}

void BM_GreedyDestructive(benchmark::State& state) {
  RRCollection rr = MakeBenchCollection(
      static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    GreedyResult r = SelectGreedy(rr, 50);
    benchmark::DoNotOptimize(r.coverage);
  }
}
BENCHMARK(BM_GreedyDestructive)->Arg(10000)->Arg(40000);

void BM_GreedyDestructiveWithTrace(benchmark::State& state) {
  RRCollection rr = MakeBenchCollection(
      static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    GreedyResult r = SelectGreedy(rr, 50, {50});
    benchmark::DoNotOptimize(r.coverage);
  }
}
BENCHMARK(BM_GreedyDestructiveWithTrace)->Arg(10000)->Arg(40000);

void BM_GreedyCelf(benchmark::State& state) {
  RRCollection rr = MakeBenchCollection(
      static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    GreedyResult r = SelectGreedyCelf(rr, 50);
    benchmark::DoNotOptimize(r.coverage);
  }
}
BENCHMARK(BM_GreedyCelf)->Arg(10000)->Arg(40000);

void BM_CoverageQuery(benchmark::State& state) {
  RRCollection rr = MakeBenchCollection(40000);
  GreedyResult g = SelectGreedy(rr, 50);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rr.CoverageOf(g.seeds));
  }
}
BENCHMARK(BM_CoverageQuery);

void BM_AliasBuild(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> weights(static_cast<size_t>(state.range(0)));
  for (double& w : weights) w = rng.UniformDouble();
  AliasSampler sampler;
  for (auto _ : state) {
    sampler.Build(weights);
    benchmark::DoNotOptimize(sampler.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AliasBuild)->Arg(64)->Arg(4096);

void BM_AliasSample(benchmark::State& state) {
  Rng rng(4);
  std::vector<double> weights(1024);
  for (double& w : weights) w = rng.UniformDouble();
  AliasSampler sampler(weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(rng));
  }
}
BENCHMARK(BM_AliasSample);

void BM_CascadeIC(benchmark::State& state) {
  CascadeSimulator sim(BenchGraph());
  Rng rng(5);
  std::vector<NodeId> seeds = {0, 100, 200, 300, 400};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim.Run(DiffusionModel::kIndependentCascade, seeds, rng));
  }
}
BENCHMARK(BM_CascadeIC);

void BM_CascadeLT(benchmark::State& state) {
  CascadeSimulator sim(BenchGraph());
  Rng rng(5);
  std::vector<NodeId> seeds = {0, 100, 200, 300, 400};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim.Run(DiffusionModel::kLinearThreshold, seeds, rng));
  }
}
BENCHMARK(BM_CascadeLT);

// --- Telemetry primitives (docs/observability.md overhead budget) ---

void BM_TelemetryCounterAdd(benchmark::State& state) {
  Counter* counter =
      MetricsRegistry::Default().FindOrCreateCounter("bench.counter_add");
  for (auto _ : state) {
    counter->Add(1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryCounterAdd)->Threads(1)->Threads(4);

void BM_TelemetryHistogramRecord(benchmark::State& state) {
  Histogram* hist =
      MetricsRegistry::Default().FindOrCreateHistogram("bench.hist_record");
  uint64_t v = 1;
  for (auto _ : state) {
    hist->Record(v);
    v = (v * 2862933555777941757ULL + 3037000493ULL) >> 40;  // vary buckets
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryHistogramRecord);

void BM_TelemetrySnapshot(benchmark::State& state) {
  MetricsRegistry registry;
  for (int i = 0; i < 64; ++i) {
    registry.FindOrCreateCounter("bench.c" + std::to_string(i))->Add(i);
    registry.FindOrCreateHistogram("bench.h" + std::to_string(i))
        ->Record(static_cast<uint64_t>(i) * 17);
  }
  for (auto _ : state) {
    MetricsSnapshot snap = registry.Snapshot();
    benchmark::DoNotOptimize(snap.counters.data());
  }
}
BENCHMARK(BM_TelemetrySnapshot);

void BM_TelemetryScopedTimer(benchmark::State& state) {
  Histogram* hist =
      MetricsRegistry::Default().FindOrCreateHistogram("bench.scoped_timer");
  for (auto _ : state) {
    ScopedTimer timer(hist);
    benchmark::DoNotOptimize(&timer);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryScopedTimer);

void BM_TelemetryLogFiltered(benchmark::State& state) {
  // Default runtime level is kWarn, so kDebug messages are dropped without
  // evaluating the stream operands — this measures the filter check alone.
  SetLogLevel(LogLevel::kWarn);
  uint64_t x = 0;
  for (auto _ : state) {
    OPIM_LOG(kDebug) << "never emitted " << ++x;
  }
  benchmark::DoNotOptimize(x);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryLogFiltered);

}  // namespace
}  // namespace opim

BENCHMARK_MAIN();
