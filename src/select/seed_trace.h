// Prefix-complete record of one greedy selection — everything needed to
// answer any k' <= k seed query, with its σ_l / σ_u / σ̂_u bounds, in
// O(k) arithmetic and zero pool scans.
//
// The Eq. (10) trace the selectors already produce (GreedyResult's
// coverage_at / topk_marginal_at) fixes the query size at the k the
// selection ran with: topk_marginal_at[i] is the top-k marginal sum at
// prefix i, which is the wrong summand for a k' < k query. SeedTrace
// generalizes it: for every prefix i = 0..k it stores the full top-j
// marginal prefix sums for j = 0..k (one (k+1)×(k+1) matrix, filled
// during the same O(k) histogram walk CELF's trace mode already does per
// pick), the prefix coverages Λ1(S_i*), the chosen seeds, and — after
// AttributeJudgeCoverage — the judge coverages Λ2(S_i*). Because greedy
// selection is prefix-consistent (the first k' picks of a k-run ARE the
// k'-run, tie-breaks included), a query at k' reads row k' (and the
// Eq. (10) minimum over rows 0..k') and reproduces exactly what a fresh
// selection + bound evaluation at k' over the same pools would compute;
// tests/select pins this per prefix.
//
// The bound parameters (θ1, θ2, n-scale, δ1, δ2) are attached by the
// engine so the trace is self-contained: bounds/bounds.h's BoundsAt
// needs only the trace and a BoundKind. Layering: select/ must not
// depend on bounds/ (the link direction is bounds -> select), so the
// bound arithmetic itself lives there, not here.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rrset/rr_collection.h"

namespace opim {

/// Value type recording one greedy selection prefix-completely. Begin()
/// re-arms it for reuse across doublings without reallocating.
class SeedTrace {
 public:
  SeedTrace() = default;

  /// Arms the trace for a selection of `k` seeds: sizes the per-prefix
  /// arrays and zero-fills them (zero rows are exactly the saturation
  /// padding — once coverage saturates, every marginal is zero).
  void Begin(uint32_t k);

  /// Query size k the trace was armed for (0 before Begin).
  uint32_t k() const { return k_; }

  /// True once Begin has armed the trace.
  bool armed() const { return armed_; }

  // --- Recording (SelectGreedyCelf trace mode) -------------------------

  /// Row i of the top-j marginal matrix: row[j] = Σ of the j largest
  /// marginal gains Λ1(v | S_i*), for j = 0..k (row[0] == 0). The
  /// selector fills entries 1..taken during its histogram walk and pads
  /// the tail with the all-nonzero total.
  uint64_t* PrefixRow(uint32_t i);

  /// Records Λ1(S_i*) for prefix i.
  void RecordCoverage(uint32_t i, uint64_t coverage);

  /// Records the final (padded) seed sequence, length min(k, n).
  void RecordSeeds(std::vector<NodeId> seeds);

  // --- Engine attachment ----------------------------------------------

  /// Judge-pool pass: fills Λ2(S_i*) for every prefix i with one
  /// r2.CoverageByPrefix pass — an incremental walk over the seeds'
  /// postings, or one judge scan of an unindexed `r2`. Λ2 at the full
  /// prefix equals r2.CoverageOf(seeds()).
  void AttributeJudgeCoverage(const RRCollection& r2);

  /// Attaches the bound parameters of the run that produced the pools.
  void SetBoundParams(uint64_t theta1, uint64_t theta2, double scale,
                      double delta1, double delta2);

  // --- Queries ---------------------------------------------------------

  /// The full seed sequence (selection order, padded to min(k, n)).
  std::span<const NodeId> seeds() const { return seeds_; }

  /// First min(k', n) seeds — identical to what a fresh selection at
  /// k' over the same pool returns. Requires k' <= k().
  std::span<const NodeId> SeedsAt(uint32_t k_prime) const;

  /// Λ1(S_i*) for prefix i <= k.
  uint64_t CoverageAt(uint32_t i) const;

  /// Λ2(S_i*) for prefix i <= k (requires AttributeJudgeCoverage).
  uint64_t Lambda2At(uint32_t i) const;

  /// Top-j marginal sum at prefix i (the Eq. (10) summand for a size-j
  /// query); i, j <= k.
  uint64_t TopMarginalAt(uint32_t i, uint32_t j) const;

  uint64_t theta1() const { return theta1_; }
  uint64_t theta2() const { return theta2_; }
  double scale() const { return scale_; }
  double delta1() const { return delta1_; }
  double delta2() const { return delta2_; }

 private:
  uint32_t k_ = 0;
  bool armed_ = false;
  bool judged_ = false;
  std::vector<NodeId> seeds_;
  std::vector<uint64_t> coverage_at_;  // k+1
  std::vector<uint64_t> lambda2_at_;   // k+1, after AttributeJudgeCoverage
  std::vector<uint64_t> topj_;         // (k+1)*(k+1), row-major by prefix
  uint64_t theta1_ = 0;
  uint64_t theta2_ = 0;
  double scale_ = 1.0;
  double delta1_ = 0.0;
  double delta2_ = 0.0;
};

}  // namespace opim
