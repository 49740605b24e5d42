// Ablation — tightness of the three Λ1(S°) upper bounds as sampling
// progresses.
//
// Section 5's argument is that the worst-case factor Λ1(S*)/(1 - 1/e) is
// loose on real instances while the greedy-trace bound Λ1ᵘ (Eq. 10) is
// tight; the Leskovec-style Λ1⋄ (Eq. 15) sits in between and can even
// exceed the worst-case bound. This bench prints all three (normalized by
// Λ1(S*), so "1.0" would be a perfect certificate) as θ1 doubles —
// explaining *why* OPIM⁺ reports better α at every checkpoint of
// Figures 2–5.
//
//   ./build/bench/bench_ablation_bounds [--scale=12] [--k=50]

#include <cstdio>

#include "bounds/bounds.h"
#include "harness/datasets.h"
#include "harness/flags.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_sampler.h"
#include "select/greedy.h"
#include "support/math_util.h"
#include "support/random.h"
#include "support/table_printer.h"

int main(int argc, char** argv) {
  opim::Flags flags(argc, argv);
  const uint32_t scale =
      static_cast<uint32_t>(flags.GetUint("scale", 12));
  const uint32_t k = static_cast<uint32_t>(flags.GetUint("k", 50));

  auto graph_or = opim::MakeDataset("pokec-sim", scale, 1);
  if (!graph_or.ok()) {
    std::fprintf(stderr, "%s\n", graph_or.status().ToString().c_str());
    return 1;
  }
  const opim::Graph& g = graph_or.ValueOrDie();

  std::printf("Ablation: upper bounds on Lambda1(S_opt), normalized by the "
              "achieved Lambda1(S*)\n(pokec-sim IC, n=%u, k=%u; lower is "
              "tighter, 1.0 is perfect, worst-case = 1/(1-1/e) = %.4f)\n\n",
              g.num_nodes(), k, 1.0 / opim::kOneMinusInvE);

  auto sampler =
      opim::MakeRRSampler(g, opim::DiffusionModel::kIndependentCascade);
  opim::Rng rng(1);
  opim::RRCollection r1(g.num_nodes());

  opim::TablePrinter table({"theta1", "worst_case", "trace_Eq10",
                            "leskovec_Eq15"});
  for (uint64_t theta : {1000ULL, 4000ULL, 16000ULL, 64000ULL, 256000ULL}) {
    sampler->Generate(&r1, theta - r1.num_sets(), rng);
    opim::GreedyResult greedy = opim::SelectGreedy(r1, k, {k});
    const double base = static_cast<double>(greedy.coverage);
    table.AddRow(
        {opim::TablePrinter::Cell(theta),
         opim::TablePrinter::Cell(1.0 / opim::kOneMinusInvE, 4),
         opim::TablePrinter::Cell(
             static_cast<double>(opim::LambdaUpperFromTrace(greedy)) / base,
             4),
         opim::TablePrinter::Cell(
             static_cast<double>(opim::LambdaUpperLeskovec(greedy)) / base,
             4)});
  }
  std::printf("%s\n", table.ToAlignedString().c_str());
  std::printf("expected: trace_Eq10 <= min(worst_case, leskovec) always "
              "(Lemma 5.2); Eq10 approaches\n1.0 as theta grows — the slack "
              "OPIM+ recovers over OPIM0.\n");
  return 0;
}
