// Differential golden contract of the out-of-core spill tier: a run
// whose memory budget forces cold RR chunks to disk must return the
// exact seed set and certificate of the fully-resident run — spilling
// moves bytes, never changes them. Dense constant-probability graphs
// keep the RR sets multi-member (inline singletons never touch the
// pool), so the pool actually spans chunks worth spilling.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "core/opim_c.h"
#include "gen/generators.h"
#include "support/run_control.h"

namespace opim {
namespace {

Graph DenseTestGraph() {
  GenOptions opt;
  opt.scheme = WeightScheme::kConstant;
  opt.constant_p = 0.25;
  opt.seed = 9;
  return GenerateBarabasiAlbert(1500, 4, false, opt);
}

OpimCResult RunEngine(const Graph& g, RunControl* control,
                      uint64_t budget_bytes, const std::string& spill_dir,
                      unsigned threads) {
  if (budget_bytes > 0) control->SetMemoryBudgetBytes(budget_bytes);
  OpimCOptions o;
  o.seed = 42;
  o.num_threads = threads;
  o.control = control;
  o.spill_dir = spill_dir;
  return RunOpimC(g, DiffusionModel::kIndependentCascade, 8, 0.25, 0.05, o);
}

class SpillDifferentialTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SpillDifferentialTest, BudgetedSpillRunMatchesResidentRun) {
  const unsigned threads = GetParam();
  const Graph g = DenseTestGraph();

  // Reference: unlimited budget, no spill tier.
  RunControl free_control;
  const OpimCResult resident = RunEngine(g, &free_control, 0, "", threads);
  ASSERT_EQ(resident.guardrails.stop_reason, StopReason::kConverged);
  ASSERT_GT(resident.rr_compressed_bytes, 0u);
  uint64_t max_footprint = 0;
  for (const OpimCIteration& it : resident.trace) {
    max_footprint = std::max(max_footprint, it.rr_bytes);
  }
  ASSERT_GT(max_footprint, 0u);

  // Serial runs poll exact footprints, so the peak iteration-boundary
  // footprint itself is a binding budget (Poll trips at >=). Pipelined
  // runs additionally poll transient staging estimates whose observed
  // peak races across shards, and the staged bytes cannot be spilled
  // (they are not in the pools yet) — so the budget there sits above
  // any possible transient (1.5x the peak merged footprint) while its
  // spill trigger, half the budget, stays below the final boundary
  // pool bytes. Either way the spill tier must engage.
  const uint64_t budget =
      threads == 1 ? max_footprint : max_footprint + max_footprint / 2;

  if (threads == 1) {
    // Prove the budget genuinely binds: without the spill tier the same
    // run stops on the memory guardrail.
    RunControl no_spill_control;
    const OpimCResult stopped =
        RunEngine(g, &no_spill_control, budget, "", threads);
    ASSERT_EQ(stopped.guardrails.stop_reason, StopReason::kMemoryBudget);
  }

  // With the spill tier armed, cold chunks go to disk and the run must
  // converge bit-identically to the fully-resident reference.
  RunControl tight_control;
  const OpimCResult spilled =
      RunEngine(g, &tight_control, budget, ::testing::TempDir(), threads);
  EXPECT_EQ(spilled.guardrails.stop_reason, StopReason::kConverged)
      << "spill tier failed to keep the run under its budget";
  EXPECT_GT(spilled.spill_chunks_spilled, 0u)
      << "budget never engaged the spill tier (graph too small?)";
  EXPECT_GT(spilled.spilled_bytes, 0u);

  EXPECT_EQ(spilled.seeds, resident.seeds);
  EXPECT_EQ(spilled.alpha, resident.alpha);
  EXPECT_EQ(spilled.num_rr_sets, resident.num_rr_sets);
  EXPECT_EQ(spilled.total_rr_size, resident.total_rr_size);
  EXPECT_EQ(spilled.iterations, resident.iterations);
  EXPECT_EQ(spilled.rr_compressed_bytes, resident.rr_compressed_bytes);
}

INSTANTIATE_TEST_SUITE_P(SerialAndParallel, SpillDifferentialTest,
                         ::testing::Values(1u, 2u));

}  // namespace
}  // namespace opim
