// OnlineMaximizer: the paper's OPIM algorithm (§4, §5).
//
// The maximizer streams random RR sets into two disjoint, evenly sized
// pools R1 (nominators) and R2 (judges). At any pause point, Query() runs
// greedy max-coverage on R1 to nominate a seed set S*, judges it with R2,
// and reports the instance-specific approximation guarantee
//
//     α = σ_l(S*) / σ_upper(S°)          (valid w.p. >= 1 - δ)
//
// with δ split as δ1 = δ2 = δ/2 (near-optimal by Lemma 4.4). The three
// published variants OPIM⁰ / OPIM⁺ / OPIM′ differ only in the upper bound
// (BoundKind); QueryAll() evaluates all three on one greedy run, which is
// what the Figure 2–5 experiments need.
//
// The usage pattern mirrors online query processing: interleave Advance()
// (give the algorithm more time) with Query() (pause and inspect), and stop
// whenever the reported α satisfies you.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bounds/bounds.h"
#include "core/two_pool_engine.h"
#include "diffusion/cascade.h"
#include "graph/graph.h"
#include "rrset/rr_collection.h"
#include "support/random.h"
#include "support/run_control.h"

namespace opim {

/// Result of pausing the online algorithm and asking for a solution.
struct OnlineSnapshot {
  /// The nominated size-k seed set S*.
  std::vector<NodeId> seeds;
  /// Reported approximation guarantee α ∈ [0, 1].
  double alpha = 0.0;
  /// High-probability lower bound on σ(S*) (Eq. 5).
  double sigma_lower = 0.0;
  /// High-probability upper bound on σ(S°) for the chosen BoundKind.
  double sigma_upper = 0.0;
  /// Coverage of S* in R1 / R2.
  uint64_t lambda1 = 0;
  uint64_t lambda2 = 0;
  /// Pool sizes at query time.
  uint64_t theta1 = 0;
  uint64_t theta2 = 0;
};

/// One greedy run judged under all three bound variants (for experiments
/// that compare OPIM⁰ / OPIM⁺ / OPIM′ on identical RR sets).
struct OnlineSnapshotAll {
  std::vector<NodeId> seeds;
  double sigma_lower = 0.0;
  double alpha_basic = 0.0;     // OPIM⁰
  double alpha_improved = 0.0;  // OPIM⁺
  double alpha_leskovec = 0.0;  // OPIM′
  uint64_t theta_total = 0;     // θ1 + θ2
};

/// Streaming OPIM processor over one graph + diffusion model.
class OnlineMaximizer {
 public:
  /// `delta` is the per-query failure probability (paper default 1/n).
  /// `seed` makes the RR-set stream reproducible.
  OnlineMaximizer(const Graph& g, DiffusionModel model, uint32_t k,
                  double delta, uint64_t seed = 1);

  /// Weighted variant: maximizes the weighted spread
  /// σ_w(S) = Σ_v w_v·Pr[S activates v] via importance-weighted RR roots.
  /// `node_weights` holds one non-negative weight per node (not all
  /// zero); every reported σ/α refers to the weighted objective.
  OnlineMaximizer(const Graph& g, DiffusionModel model, uint32_t k,
                  double delta, std::span<const double> node_weights,
                  uint64_t seed);

  OPIM_DISALLOW_COPY(OnlineMaximizer);

  /// Attaches run guardrails (non-owning, may be nullptr to detach; must
  /// outlive the maximizer while attached). Advance/AdvanceParallel poll
  /// the control every kControlPollStride samples and stop early once it
  /// trips; RunUntilTarget then returns the current snapshot instead of
  /// continuing — the natural anytime pause point of §4. Query() stays
  /// valid on whatever RR sets exist (it requires one set per pool, which
  /// the first Advance provides even when pre-tripped).
  void set_run_control(RunControl* control) { control_ = control; }
  RunControl* run_control() const { return control_; }

  /// Generates `count` additional RR sets, alternating between R1 and R2
  /// so the pools stay evenly sized (§4.1).
  void Advance(uint64_t count);

  /// Multithreaded Advance: generates ceil(count/2) sets into R1 and the
  /// rest into R2 using `num_threads` workers (0 = hardware default).
  /// Deterministic in (constructor seed, call sequence, num_threads) but
  /// produces a *different* stream than serial Advance — don't mix
  /// expectations across the two within one experiment.
  void AdvanceParallel(uint64_t count, unsigned num_threads = 0);

  /// Pauses and derives (S*, α) under the given bound variant.
  /// Requires at least one RR set in each pool.
  OnlineSnapshot Query(BoundKind kind) const;

  /// Like Query(), but for a *sequence* of pause points whose guarantees
  /// must all hold simultaneously: the i-th sequential query spends
  /// failure budget δ/2^i, so by the union bound every returned α is
  /// simultaneously valid with probability >= 1 - δ (the variation
  /// described in §4's Discussions). Each call consumes one step of the
  /// budget; mixing with plain Query() is fine (plain queries don't
  /// consume budget but only carry per-query validity).
  OnlineSnapshot QuerySequential(BoundKind kind);

  /// Sequential queries issued so far via QuerySequential().
  uint32_t sequential_queries_issued() const { return sequential_queries_; }

  /// Pauses and derives S* once, with α under all three bound variants.
  OnlineSnapshotAll QueryAll() const;

  /// Convenience driver: alternates Advance(batch) and Query(kind) until
  /// the reported α reaches `target_alpha` or the total RR-set count
  /// reaches `max_rr_sets` (0 = unbounded — only sensible with an
  /// achievable target). Returns the final snapshot.
  OnlineSnapshot RunUntilTarget(BoundKind kind, double target_alpha,
                                uint64_t batch = 10000,
                                uint64_t max_rr_sets = 0);

  /// Total RR sets generated so far (|R1| + |R2|).
  uint64_t num_rr_sets() const {
    return static_cast<uint64_t>(engine_.r1().num_sets()) +
           engine_.r2().num_sets();
  }

  /// Total traversal cost γ paid so far (drives the Borgs baseline too).
  uint64_t edges_examined() const {
    return engine_.r1().total_edges_examined() +
           engine_.r2().total_edges_examined();
  }

  const RRCollection& r1() const { return engine_.r1(); }
  const RRCollection& r2() const { return engine_.r2(); }
  uint32_t k() const { return k_; }
  double delta() const { return delta_; }

 private:
  uint32_t k_;
  double delta_;
  /// Pools, sampling, selection and bounds (core/two_pool_engine.h), fed
  /// by both the serial and the parallel RR stream.
  TwoPoolEngine engine_;
  Rng rng_;
  /// Shared implementation of Query/QuerySequential at a given per-side
  /// failure budget.
  OnlineSnapshot QueryWithDelta(BoundKind kind, double delta_each) const;

  RunControl* control_ = nullptr;  // non-owning guardrails; see setter
  bool next_to_r1_ = true;     // alternation cursor
  uint32_t sequential_queries_ = 0;
};

}  // namespace opim
