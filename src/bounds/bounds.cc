#include "bounds/bounds.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "obs/telemetry.h"
#include "obs/trace.h"
#include "support/math_util.h"

namespace opim {

const char* BoundKindName(BoundKind kind) {
  switch (kind) {
    case BoundKind::kBasic:
      return "OPIM0";
    case BoundKind::kImproved:
      return "OPIM+";
    case BoundKind::kLeskovec:
      return "OPIM'";
  }
  return "?";
}

double SigmaLower(uint64_t lambda2, uint64_t theta2, double scale,
                  double delta2) {
  OPIM_TR_SPAN1("sigma_lower", "bounds", "theta2", theta2);
  OPIM_TM_COUNTER_ADD("opim.bounds.eval_lower", 1);
  OPIM_CHECK_GT(theta2, 0u);
  OPIM_CHECK(delta2 > 0.0 && delta2 < 1.0);
  const double a = std::log(1.0 / delta2);
  // ((sqrt(Λ2 + 2a/9) - sqrt(a/2))² - a/18) · scale/θ2, clamped at >= 0.
  // `scale` is n for the unit-weight problem, Σ_v w_v for weighted IM.
  const double inner = SquaredSqrtDiffClamped(
                           static_cast<double>(lambda2) + 2.0 * a / 9.0,
                           a / 2.0) -
                       a / 18.0;
  return std::max(inner, 0.0) * scale / static_cast<double>(theta2);
}

double SigmaUpperFromLambda(double lambda_upper, uint64_t theta1, double scale,
                            double delta1) {
  OPIM_CHECK_GT(theta1, 0u);
  OPIM_CHECK(delta1 > 0.0 && delta1 < 1.0);
  OPIM_CHECK_GE(lambda_upper, 0.0);
  const double a = std::log(1.0 / delta1);
  return SquaredSqrtSum(lambda_upper + a / 2.0, a / 2.0) * scale /
         static_cast<double>(theta1);
}

double SigmaUpperBasic(uint64_t lambda1, uint64_t theta1, double scale,
                       double delta1) {
  return SigmaUpperFromLambda(
      static_cast<double>(lambda1) / kOneMinusInvE, theta1, scale, delta1);
}

namespace {

/// The size k' names (0: the selection's k).
uint32_t SizeOrK(const GreedyResult& greedy, uint32_t k_prime) {
  return k_prime == 0 ? static_cast<uint32_t>(greedy.seeds.size()) : k_prime;
}

}  // namespace

uint64_t LambdaUpperFromTrace(const GreedyResult& greedy, uint32_t k_prime) {
  const uint32_t j = SizeOrK(greedy, k_prime);
  // Prefixes 0..j of size j's column: by prefix-consistency exactly the
  // trace a fresh j-selection would hold.
  const std::span<const uint64_t> top = greedy.TopMarginals(j);
  uint64_t best = UINT64_MAX;
  for (uint32_t i = 0; i <= j; ++i) {
    best = std::min(best, greedy.coverage_at[i] + top[i]);
  }
  return best;
}

uint64_t LambdaUpperLeskovec(const GreedyResult& greedy, uint32_t k_prime) {
  const uint32_t j = SizeOrK(greedy, k_prime);
  return greedy.coverage_at[j] + greedy.TopMarginals(j)[j];
}

double SigmaUpper(BoundKind kind, const GreedyResult& greedy, uint64_t theta1,
                  double scale, double delta1, uint32_t k_prime) {
  OPIM_TR_SPAN1("sigma_upper", "bounds", "theta1", theta1);
  const uint32_t j = SizeOrK(greedy, k_prime);
  switch (kind) {
    case BoundKind::kBasic:
      OPIM_TM_COUNTER_ADD("opim.bounds.eval_basic", 1);
      // Λ1(S_j*): the selection's own coverage at k, else the trace's.
      if (j == greedy.seeds.size()) {
        return SigmaUpperBasic(greedy.coverage, theta1, scale, delta1);
      }
      OPIM_CHECK_LT(j, greedy.coverage_at.size());
      return SigmaUpperBasic(greedy.coverage_at[j], theta1, scale, delta1);
    case BoundKind::kImproved:
      OPIM_TM_COUNTER_ADD("opim.bounds.eval_improved", 1);
      return SigmaUpperFromLambda(
          static_cast<double>(LambdaUpperFromTrace(greedy, j)), theta1,
          scale, delta1);
    case BoundKind::kLeskovec:
      OPIM_TM_COUNTER_ADD("opim.bounds.eval_leskovec", 1);
      return SigmaUpperFromLambda(
          static_cast<double>(LambdaUpperLeskovec(greedy, j)), theta1, scale,
          delta1);
  }
  return 0.0;
}

double ApproxRatio(double sigma_lower, double sigma_upper) {
  if (sigma_upper <= 0.0) return 0.0;
  return std::clamp(sigma_lower / sigma_upper, 0.0, 1.0);
}

double BorgsApproxGuarantee(uint64_t gamma, uint32_t n, uint64_t m) {
  if (n < 2) return 0.0;
  const double beta = static_cast<double>(gamma) /
                      (1492992.0 * static_cast<double>(n + m) * std::log(n));
  return std::min(0.25, beta);
}

double LemmaF(double lambda2, double x) {
  return SquaredSqrtDiffClamped(lambda2 + 2.0 * x / 9.0, x / 2.0) - x / 18.0;
}

double LemmaG(double lambda1, double x) {
  return SquaredSqrtSum(lambda1 / kOneMinusInvE + x / 2.0, x / 2.0);
}

double DeltaSplitRatio(double lambda1, double lambda2, double delta) {
  OPIM_CHECK(delta > 0.0 && delta < 1.0);
  const double half = std::log(2.0 / delta);
  const double full = std::log(1.0 / delta);
  const double denom = LemmaF(lambda2, full) * LemmaG(lambda1, half);
  if (denom <= 0.0) return 0.0;
  return LemmaF(lambda2, half) * LemmaG(lambda1, full) / denom;
}

}  // namespace opim
