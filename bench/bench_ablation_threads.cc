// Ablation — parallel RR-set generation scaling.
//
// RR sampling dominates every RIS algorithm's cost; this bench measures
// the throughput of one engine batch (TwoPoolEngine::Stage + Merge, the
// engine built outside the timer) versus thread count under both
// diffusion models, and the end-to-end effect on OPIM-C. Not a paper experiment
// (the authors' code is single-threaded) — it documents the headroom the
// library's parallel path provides.
//
//   ./build/bench/bench_ablation_threads [--scale=13] [--count=200000]

#include <cstdio>

#include "core/opim_c.h"
#include "core/two_pool_engine.h"
#include "harness/datasets.h"
#include "harness/flags.h"
#include "support/stopwatch.h"
#include "support/table_printer.h"
#include "support/thread_pool.h"

int main(int argc, char** argv) {
  opim::Flags flags(argc, argv);
  const uint32_t scale =
      static_cast<uint32_t>(flags.GetUint("scale", 13));
  const uint64_t count = flags.GetUint("count", 200000);

  auto graph_or = opim::MakeDataset("twitter-sim", scale, 1);
  if (!graph_or.ok()) {
    std::fprintf(stderr, "%s\n", graph_or.status().ToString().c_str());
    return 1;
  }
  const opim::Graph& g = graph_or.ValueOrDie();
  const unsigned hw = opim::ThreadPool::DefaultThreadCount();

  std::printf("Ablation: RR-set generation scaling on twitter-sim "
              "(n=%u, m=%llu, %llu sets per cell, %u hardware threads)\n\n",
              g.num_nodes(), static_cast<unsigned long long>(g.num_edges()),
              static_cast<unsigned long long>(count), hw);

  opim::TablePrinter table(
      {"threads", "IC_sets_per_sec", "LT_sets_per_sec", "IC_speedup"});
  double base_ic = 0.0;
  for (unsigned t : {1u, 2u, 4u, 8u}) {
    if (t > 2 * hw) break;
    auto rate = [&](opim::DiffusionModel model) {
      opim::TwoPoolEngine engine(g, model, {}, t);
      opim::Stopwatch sw;
      engine.Stage(count, /*seed1=*/1, 0, 0, nullptr, /*speculative=*/false);
      engine.Merge(nullptr);
      return count / sw.ElapsedSeconds();
    };
    const double rate_ic = rate(opim::DiffusionModel::kIndependentCascade);
    const double rate_lt = rate(opim::DiffusionModel::kLinearThreshold);
    if (t == 1) base_ic = rate_ic;
    table.AddRow({opim::TablePrinter::Cell(uint64_t{t}),
                  opim::TablePrinter::Cell(rate_ic, 5),
                  opim::TablePrinter::Cell(rate_lt, 5),
                  opim::TablePrinter::Cell(rate_ic / base_ic, 3)});
  }
  std::printf("%s\n", table.ToAlignedString().c_str());

  // End-to-end: OPIM-C wall clock, serial vs parallel generation.
  std::printf("OPIM-C end-to-end (k=50, eps=0.05):\n");
  for (unsigned t : {1u, 4u}) {
    opim::OpimCOptions o;
    o.num_threads = t;
    opim::Stopwatch sw;
    opim::OpimCResult r =
        RunOpimC(g, opim::DiffusionModel::kIndependentCascade, 50, 0.05,
                 1.0 / g.num_nodes(), o);
    std::printf("  threads=%u: %.2fs (%llu RR sets, alpha=%.3f)\n", t,
                sw.ElapsedSeconds(),
                static_cast<unsigned long long>(r.num_rr_sets), r.alpha);
  }
  std::printf("\nnote: LT generation is cheaper per set (single reverse "
              "walk) but parallel speedup\nis similar; the alias tables "
              "are built once per sampler per shard.\n");
  return 0;
}
