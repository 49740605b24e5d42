// Instance-specific spread bounds — the paper's core contribution (§4, §5).
//
// Given disjoint RR-set pools R1 (nominators: greedy picked S* from them)
// and R2 (judges: independent of S*), the paper derives, each holding with
// probability >= 1 - δ_i:
//
//   σ_l(S*)   lower bound on σ(S*) from Λ2(S*)                    Eq. (5)
//   σ_u(S°)   upper bound on σ(S°) from Λ1(S*)/(1-1/e)            Eq. (8)
//   σ̂_u(S°)   tighter upper bound from the greedy-trace bound
//             Λ1ᵘ(S°) of Eq. (10)                                 Eq. (13)
//   σ⋄(S°)    Leskovec-style upper bound from Λ1⋄(S°)             Eq. (15)
//
// The reported approximation guarantee is α = σ_l(S*) / σ_upper(S°), valid
// with probability >= 1 - δ1 - δ2. OPIM⁰ / OPIM⁺ / OPIM′ differ only in
// which upper bound they use (BoundKind).
//
// The Λ coverage counts these bounds consume come from the RR pools:
// Λ2 of every prefix of S* is one scan of the engine's unindexed judge
// pool (RRCollection::CoverageByPrefix), and the Λ1 trace values arrive
// in GreedyResult from the CELF selection (select/greedy.cc), for every
// seed-set size the selection traced. The functions here are pure
// arithmetic on those counts; each upper bound can be evaluated at any
// traced size k', which by greedy prefix-consistency equals the bound a
// fresh k'-selection over the same pool would give.
//
// Also here: Borgs et al.'s purely input-size-based guarantee (§3.2) for
// the baseline, and the Lemma 4.4 f/g machinery behind Figure 1.

#pragma once

#include <cstdint>

#include "select/greedy.h"

namespace opim {

/// Which upper bound on σ(S°) an OPIM variant uses.
enum class BoundKind {
  /// Eq. (8): Λ1(S*)/(1-1/e). The vanilla bound — OPIM⁰.
  kBasic,
  /// Eq. (13): greedy-trace bound Λ1ᵘ(S°), never worse than kBasic
  /// (Lemma 5.2) — OPIM⁺.
  kImproved,
  /// Eq. (15): Leskovec-style bound Λ1⋄(S°) at the final greedy prefix
  /// only; can be looser than kBasic — OPIM′.
  kLeskovec,
};

/// Returns "OPIM0" / "OPIM+" / "OPIM'" style short names.
const char* BoundKindName(BoundKind kind);

/// σ_l(S*) of Eq. (5): high-probability lower bound on σ(S*) from its
/// coverage `lambda2` in the θ2 judge sets. Clamped at >= 0.
double SigmaLower(uint64_t lambda2, uint64_t theta2, double scale,
                  double delta2);

/// Shared kernel of Eqs. (8)/(13)/(15):
/// (sqrt(λᵘ + a/2) + sqrt(a/2))² · n/θ1 with a = ln(1/δ1), where λᵘ is an
/// upper bound on Λ1(S°).
double SigmaUpperFromLambda(double lambda_upper, uint64_t theta1, double scale,
                            double delta1);

/// σ_u(S°) of Eq. (8), using λᵘ = Λ1(S*)/(1 - 1/e).
double SigmaUpperBasic(uint64_t lambda1, uint64_t theta1, double scale,
                       double delta1);

/// Λ1ᵘ(S°) of Eq. (10) for seed-set size k' (0: the selection's k): min
/// over greedy prefixes i = 0..k' of Λ1(S_i*) + Σ_{v ∈ maxMC(S_i*, k')}
/// Λ1(v | S_i*). Requires a GreedyResult that traced k'.
uint64_t LambdaUpperFromTrace(const GreedyResult& greedy,
                              uint32_t k_prime = 0);

/// Λ1⋄(S°) of §5 ("Comparison with Previous Work") for size k' (0: the
/// selection's k): the Eq. (10) summand evaluated at prefix i = k' only.
uint64_t LambdaUpperLeskovec(const GreedyResult& greedy,
                             uint32_t k_prime = 0);

/// σ upper bound per `kind` for the first k' seeds (0: the selection's
/// k). kBasic needs no trace at k itself; every other case reads the
/// trace at k'.
double SigmaUpper(BoundKind kind, const GreedyResult& greedy, uint64_t theta1,
                  double scale, double delta1, uint32_t k_prime = 0);

/// α = σ_l / σ_upper clamped to [0, 1] (0 when the upper bound is 0).
double ApproxRatio(double sigma_lower, double sigma_upper);

/// Borgs et al.'s guarantee (§3.2): min{1/4, γ / (1492992 (n+m) ln n)}
/// where γ is the number of edges examined during RR-set construction.
double BorgsApproxGuarantee(uint64_t gamma, uint32_t n, uint64_t m);

/// Lemma 4.4's f(x) (decreasing in x): the Eq. (5) numerator shape as a
/// function of a = x, at coverage `lambda2`.
double LemmaF(double lambda2, double x);

/// Lemma 4.4's g(x) (increasing in x): the Eq. (8) shape with
/// λᵘ = lambda1 / (1 - 1/e).
double LemmaG(double lambda1, double x);

/// The Figure 1 quantity f(ln 2/δ)·g(ln 1/δ) / (f(ln 1/δ)·g(ln 2/δ)):
/// how close the δ1 = δ2 = δ/2 split is to the optimal split.
double DeltaSplitRatio(double lambda1, double lambda2, double delta);

}  // namespace opim
