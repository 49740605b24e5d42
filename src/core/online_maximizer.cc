#include "core/online_maximizer.h"

#include <algorithm>
#include <cmath>

#include "obs/telemetry.h"
#include "obs/trace.h"

namespace opim {

OnlineMaximizer::OnlineMaximizer(const Graph& g, DiffusionModel model,
                                 uint32_t k, double delta, uint64_t seed)
    : OnlineMaximizer(g, model, k, delta, {}, seed) {}

OnlineMaximizer::OnlineMaximizer(const Graph& g, DiffusionModel model,
                                 uint32_t k, double delta,
                                 std::span<const double> node_weights,
                                 uint64_t seed)
    : k_(k),
      delta_(delta),
      engine_(g, model, node_weights, /*num_threads=*/1),
      rng_(seed, 0x6f70696dULL) {  // "opim"
  OPIM_CHECK_GE(k, 1u);
  OPIM_CHECK_LE(k, g.num_nodes());
  OPIM_CHECK(delta > 0.0 && delta < 1.0);
}

void OnlineMaximizer::AdvanceParallel(uint64_t count,
                                      unsigned num_threads) {
  OPIM_TR_SPAN1("advance", "online", "count", count);
  OPIM_TM_SCOPED_TIMER("opim.online.advance_us");
  const uint64_t to_r1 = (count + next_to_r1_) / 2;
  const uint64_t seed1 = rng_.NextU64();
  const uint64_t seed2 = rng_.NextU64();
  // Both batches share one stage: their shards interleave on the engine's
  // workers (a straggler shard of one batch no longer idles threads the
  // other could use). Per-batch seeds and shard counts are those of two
  // sequential ParallelGenerate calls, so the RR streams are too.
  engine_.SetThreads(num_threads);
  engine_.Stage(to_r1, seed1, count - to_r1, seed2, control_,
                /*speculative=*/false);
  engine_.Merge(control_);
  if (count % 2 == 1) next_to_r1_ = !next_to_r1_;
  engine_.FloorEmptyPools(control_,
                          [&](int pool) { return pool == 0 ? seed1 : seed2; });
}

void OnlineMaximizer::Advance(uint64_t count) {
  OPIM_TR_SPAN1("advance", "online", "count", count);
  OPIM_TM_SCOPED_TIMER("opim.online.advance_us");
  engine_.SampleSerial(count, rng_, &next_to_r1_, control_);
}

OnlineSnapshot OnlineMaximizer::Query(BoundKind kind) const {
  // δ1 = δ2 = δ/2 (near-optimal by Lemma 4.4).
  return QueryWithDelta(kind, delta_ / 2.0);
}

OnlineSnapshot OnlineMaximizer::QuerySequential(BoundKind kind) {
  ++sequential_queries_;
  // The i-th query gets failure budget δ/2^i, split evenly between the
  // two bounds, so Σ_i δ/2^i <= δ covers the whole sequence.
  const double budget = delta_ / std::pow(2.0, sequential_queries_);
  return QueryWithDelta(kind, budget / 2.0);
}

OnlineSnapshot OnlineMaximizer::QueryWithDelta(BoundKind kind,
                                               double delta_each) const {
  OPIM_TR_SPAN1("query", "online", "theta1", engine_.r1().num_sets());
  OPIM_TM_SCOPED_TIMER("opim.online.query_us");
  OPIM_TM_COUNTER_ADD("opim.online.queries", 1);
  OPIM_CHECK_MSG(engine_.r1().num_sets() > 0 && engine_.r2().num_sets() > 0,
                 "Query before any RR sets were generated; call Advance()");
  // CELF with the engine's persistent selection state: across the
  // Advance/Query cadence only the new sets' postings are folded into
  // the initial gains (bit-identical to SelectGreedy).
  TwoPoolEngine::SelectOptions select;
  select.with_trace = kind != BoundKind::kBasic;
  GreedyResult greedy = engine_.Select(k_, select);
  const TwoPoolEngine::Certificate cert =
      engine_.Certify(greedy, kind, delta_each, delta_each);

  OnlineSnapshot snap;
  snap.theta1 = engine_.r1().num_sets();
  snap.theta2 = engine_.r2().num_sets();
  snap.lambda1 = greedy.coverage;
  snap.lambda2 = cert.lambda2;
  snap.sigma_lower = cert.sigma_lower;
  snap.sigma_upper = cert.sigma_upper;
  snap.alpha = cert.alpha;
  snap.seeds = std::move(greedy.seeds);
  return snap;
}

OnlineSnapshot OnlineMaximizer::RunUntilTarget(BoundKind kind,
                                               double target_alpha,
                                               uint64_t batch,
                                               uint64_t max_rr_sets) {
  OPIM_CHECK_GE(batch, 1u);
  for (;;) {
    uint64_t step = batch;
    if (max_rr_sets != 0) {
      OPIM_CHECK_GE(max_rr_sets, 2u);
      if (num_rr_sets() >= max_rr_sets) break;
      step = std::min<uint64_t>(step, max_rr_sets - num_rr_sets());
    }
    Advance(step);
    // A tripped guardrail ends the drive loop at this pause point; the
    // final Query below reports (S*, α) on the RR sets that exist.
    if (control_ != nullptr && control_->Stopped()) break;
    if (Query(kind).alpha >= target_alpha) break;
  }
  return Query(kind);
}

OnlineSnapshotAll OnlineMaximizer::QueryAll() const {
  OPIM_TR_SPAN1("query", "online", "theta1", engine_.r1().num_sets());
  OPIM_TM_SCOPED_TIMER("opim.online.query_us");
  OPIM_TM_COUNTER_ADD("opim.online.queries", 1);
  OPIM_CHECK_MSG(engine_.r1().num_sets() > 0 && engine_.r2().num_sets() > 0,
                 "QueryAll before any RR sets were generated; call Advance()");
  const double delta_each = delta_ / 2.0;
  TwoPoolEngine::SelectOptions select;
  select.with_trace = true;
  GreedyResult greedy = engine_.Select(k_, select);
  const TwoPoolEngine::Certificate basic =
      engine_.Certify(greedy, BoundKind::kBasic, delta_each, delta_each);

  OnlineSnapshotAll snap;
  snap.theta_total = num_rr_sets();
  snap.sigma_lower = basic.sigma_lower;
  snap.alpha_basic = basic.alpha;
  snap.alpha_improved = ApproxRatio(
      snap.sigma_lower,
      engine_.UpperBound(greedy, BoundKind::kImproved, delta_each));
  snap.alpha_leskovec = ApproxRatio(
      snap.sigma_lower,
      engine_.UpperBound(greedy, BoundKind::kLeskovec, delta_each));
  snap.seeds = std::move(greedy.seeds);
  return snap;
}

}  // namespace opim
