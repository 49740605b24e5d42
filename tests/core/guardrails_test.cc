// Guardrail behavior of RunOpimC and OnlineMaximizer: every stop reason
// yields a valid anytime answer (size-k seeds, finite α), untripped
// controlled runs are byte-identical to uncontrolled runs, and the memory
// budget reproduces the uninterrupted run's iteration-1 certificate
// deterministically.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/online_maximizer.h"
#include "core/opim_c.h"
#include "gen/generators.h"
#include "support/run_control.h"

namespace opim {
namespace {

constexpr double kEps = 0.3;
constexpr double kDelta = 0.01;

Graph TestGraph() { return GenerateBarabasiAlbert(500, 5); }

void ExpectValidAnytimeResult(const OpimCResult& r, uint32_t k,
                              StopReason want) {
  EXPECT_EQ(r.guardrails.stop_reason, want);
  EXPECT_EQ(r.seeds.size(), k);
  EXPECT_TRUE(std::isfinite(r.alpha));
  EXPECT_GE(r.alpha, 0.0);
  EXPECT_GE(r.iterations, 1u);
  ASSERT_EQ(r.trace.size(), r.iterations);
  EXPECT_GT(r.trace.back().sigma_upper, 0.0);
  EXPECT_GT(r.trace.back().rr_bytes, 0u);
  if (want != StopReason::kConverged) {
    EXPECT_GE(r.guardrails.stop_latency_seconds, 0.0);
  }
}

TEST(OpimCGuardrailsTest, UntrippedControlIsByteIdenticalToUncontrolled) {
  Graph g = TestGraph();
  OpimCOptions plain;
  plain.seed = 7;
  OpimCResult a = RunOpimC(g, DiffusionModel::kIndependentCascade, 5, kEps,
                           kDelta, plain);

  RunControl control;
  control.SetDeadlineAfterMillis(3'600'000);  // generous: never trips
  OpimCOptions guarded = plain;
  guarded.control = &control;
  OpimCResult b = RunOpimC(g, DiffusionModel::kIndependentCascade, 5, kEps,
                           kDelta, guarded);

  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.alpha, b.alpha);
  EXPECT_EQ(a.num_rr_sets, b.num_rr_sets);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(b.guardrails.stop_reason, StopReason::kConverged);
  EXPECT_TRUE(b.guardrails.had_deadline);
  EXPECT_GT(b.guardrails.deadline_slack_seconds, 0.0);
  EXPECT_GT(b.guardrails.peak_rr_bytes, 0u);
}

TEST(OpimCGuardrailsTest, ExpiredDeadlineStillReturnsCertifiedSeeds) {
  Graph g = TestGraph();
  RunControl control;
  control.SetDeadlineAfterMillis(0);  // expired before the run starts
  OpimCOptions o;
  o.seed = 7;
  o.control = &control;
  OpimCResult r = RunOpimC(g, DiffusionModel::kIndependentCascade, 5, kEps,
                           kDelta, o);
  ExpectValidAnytimeResult(r, 5, StopReason::kDeadline);
  EXPECT_EQ(r.iterations, 1u);  // degraded at the first safe point
  EXPECT_LE(r.guardrails.deadline_slack_seconds, 0.0);
}

TEST(OpimCGuardrailsTest, TinyMemoryBudgetDegradesGracefully) {
  Graph g = TestGraph();
  RunControl control;
  control.SetMemoryBudgetBytes(1);  // trips at the first footprint report
  OpimCOptions o;
  o.seed = 7;
  o.control = &control;
  OpimCResult r = RunOpimC(g, DiffusionModel::kIndependentCascade, 5, kEps,
                           kDelta, o);
  ExpectValidAnytimeResult(r, 5, StopReason::kMemoryBudget);
  EXPECT_EQ(r.guardrails.memory_budget_bytes, 1u);
  EXPECT_GE(r.guardrails.peak_rr_bytes, 1u);
}

TEST(OpimCGuardrailsTest, PreCancelledRunStillAnswers) {
  Graph g = TestGraph();
  RunControl control;
  control.RequestCancel();
  OpimCOptions o;
  o.seed = 7;
  o.control = &control;
  OpimCResult r = RunOpimC(g, DiffusionModel::kLinearThreshold, 3, kEps,
                           kDelta, o);
  ExpectValidAnytimeResult(r, 3, StopReason::kCancelled);
}

TEST(OpimCGuardrailsTest,
     MemoryBudgetReproducesUninterruptedIterationOneCertificate) {
  // The acceptance test for graceful degradation: run once without
  // guardrails, then arm a budget equal to the footprint the first
  // iteration reported. The boundary poll trips at iteration 1 (budget
  // "exhausted when reached"), and because generation-time estimates stay
  // below the exact post-ingest footprint, the interrupted run generates
  // exactly the same θ0 pools — so seeds and α must match the
  // uninterrupted run's iteration-1 trace entry bit-for-bit.
  Graph g = TestGraph();
  OpimCOptions plain;
  plain.seed = 11;
  OpimCResult full = RunOpimC(g, DiffusionModel::kIndependentCascade, 5,
                              0.1, kDelta, plain);
  ASSERT_GE(full.iterations, 2u)
      << "need a multi-iteration run for this test; loosen eps";

  RunControl control;
  control.SetMemoryBudgetBytes(full.trace[0].rr_bytes);
  OpimCOptions guarded = plain;
  guarded.control = &control;
  OpimCResult cut = RunOpimC(g, DiffusionModel::kIndependentCascade, 5, 0.1,
                             kDelta, guarded);

  EXPECT_EQ(cut.guardrails.stop_reason, StopReason::kMemoryBudget);
  EXPECT_EQ(cut.iterations, 1u);
  EXPECT_EQ(cut.seeds.size(), 5u);
  EXPECT_EQ(cut.alpha, full.trace[0].alpha);
  EXPECT_EQ(cut.trace[0].theta1, full.trace[0].theta1);
  EXPECT_EQ(cut.trace[0].sigma_lower, full.trace[0].sigma_lower);
  EXPECT_EQ(cut.trace[0].sigma_upper, full.trace[0].sigma_upper);
  EXPECT_EQ(cut.trace[0].rr_bytes, full.trace[0].rr_bytes);
}

TEST(OpimCGuardrailsTest, BudgetedParallelPeakCoversEveryIteration) {
  // peak_rr_bytes is the largest footprint the run saw. Budgets between
  // two iterations' footprints trip while a doubling is staged; the
  // boundary poll after its merge still counts toward the peak.
  Graph g = TestGraph();
  OpimCOptions o;
  o.seed = 7;
  o.num_threads = 4;
  const OpimCResult full = RunOpimC(g, DiffusionModel::kIndependentCascade,
                                    5, 0.1, kDelta, o);
  ASSERT_GE(full.iterations, 3u);
  for (uint32_t i = 1; i < full.iterations; ++i) {
    const uint64_t lo = full.trace[i - 1].rr_bytes;
    const uint64_t hi = full.trace[i].rr_bytes;
    for (const uint64_t budget : {(lo + hi) / 2, hi - 1}) {
      SCOPED_TRACE("iteration " + std::to_string(i + 1) + " budget " +
                   std::to_string(budget));
      RunControl control;
      control.SetMemoryBudgetBytes(budget);
      OpimCOptions budgeted = o;
      budgeted.control = &control;
      const OpimCResult r = RunOpimC(
          g, DiffusionModel::kIndependentCascade, 5, 0.1, kDelta, budgeted);
      ExpectValidAnytimeResult(r, 5, StopReason::kMemoryBudget);
      for (size_t row = 0; row < r.trace.size(); ++row) {
        EXPECT_GE(r.guardrails.peak_rr_bytes, r.trace[row].rr_bytes)
            << "row " << row + 1;
      }
    }
  }
}

TEST(OpimCGuardrailsTest, ParallelRunHonorsGuardrails) {
  Graph g = TestGraph();
  RunControl control;
  control.SetDeadlineAfterMillis(0);
  OpimCOptions o;
  o.seed = 7;
  o.num_threads = 4;
  o.control = &control;
  OpimCResult r = RunOpimC(g, DiffusionModel::kIndependentCascade, 5, kEps,
                           kDelta, o);
  ExpectValidAnytimeResult(r, 5, StopReason::kDeadline);
}

TEST(OnlineGuardrailsTest, RunUntilTargetStopsWhenCancelled) {
  Graph g = TestGraph();
  OnlineMaximizer om(g, DiffusionModel::kIndependentCascade, 5, 0.01, 3);
  RunControl control;
  om.set_run_control(&control);
  control.RequestCancel();
  // Without the guardrail this target would need many batches; cancelled
  // up front, the driver must return after its first (floored) advance.
  OnlineSnapshot snap =
      om.RunUntilTarget(BoundKind::kImproved, 0.99, 1000, 0);
  EXPECT_EQ(snap.seeds.size(), 5u);
  EXPECT_TRUE(std::isfinite(snap.alpha));
  EXPECT_GT(snap.theta1, 0u);
  EXPECT_GT(snap.theta2, 0u);
  EXPECT_LE(om.num_rr_sets(), 1000u);
}

TEST(OnlineGuardrailsTest, SerialAdvanceStopsEarlyAfterTrip) {
  Graph g = TestGraph();
  OnlineMaximizer om(g, DiffusionModel::kIndependentCascade, 5, 0.01, 3);
  RunControl control;
  control.SetMemoryBudgetBytes(1);
  om.set_run_control(&control);
  om.Advance(100'000);
  // Tripped at the first poll with a non-empty floor: far fewer sets than
  // requested, but enough for a valid Query on both pools.
  EXPECT_LT(om.num_rr_sets(), 100'000u);
  EXPECT_GT(om.r1().num_sets(), 0u);
  EXPECT_GT(om.r2().num_sets(), 0u);
  OnlineSnapshot snap = om.Query(BoundKind::kImproved);
  EXPECT_EQ(snap.seeds.size(), 5u);
  EXPECT_TRUE(std::isfinite(snap.alpha));
}

TEST(OnlineGuardrailsTest, ParallelAdvanceStopsEarlyAfterTrip) {
  Graph g = TestGraph();
  OnlineMaximizer om(g, DiffusionModel::kIndependentCascade, 5, 0.01, 3,
                     /*num_threads=*/4);
  RunControl control;
  control.RequestCancel();
  om.set_run_control(&control);
  om.Advance(100'000);
  EXPECT_LT(om.num_rr_sets(), 100'000u);
  EXPECT_GT(om.r1().num_sets(), 0u);
  EXPECT_GT(om.r2().num_sets(), 0u);
  OnlineSnapshot snap = om.Query(BoundKind::kImproved);
  EXPECT_EQ(snap.seeds.size(), 5u);
  EXPECT_TRUE(std::isfinite(snap.alpha));
}

TEST(OnlineGuardrailsTest, DetachedControlRestoresNormalBehavior) {
  Graph g = TestGraph();
  OnlineMaximizer om(g, DiffusionModel::kIndependentCascade, 5, 0.01, 3);
  RunControl control;
  control.RequestCancel();
  om.set_run_control(&control);
  om.set_run_control(nullptr);  // detach: guardrails no longer consulted
  om.Advance(2000);
  EXPECT_EQ(om.num_rr_sets(), 2000u);
}

}  // namespace
}  // namespace opim
