#include "baselines/imm.h"

#include <algorithm>
#include <cmath>

#include "rrset/rr_collection.h"
#include "rrset/rr_sampler.h"
#include "select/greedy.h"
#include "support/math_util.h"
#include "support/random.h"

namespace opim {

ImResult RunImm(const Graph& g, DiffusionModel model, uint32_t k, double eps,
                double delta, const ImmOptions& options, ImmStats* stats) {
  const uint32_t n = g.num_nodes();
  OPIM_CHECK_GE(n, 2u);
  OPIM_CHECK_GE(k, 1u);
  OPIM_CHECK_LE(k, n);
  OPIM_CHECK(eps > 0.0 && eps < 1.0);
  OPIM_CHECK(delta > 0.0 && delta < 1.0);

  const double ln_n = std::log(static_cast<double>(n));
  // δ = n^-ℓ, plus the IMM §4.2 correction ℓ ← ℓ(1 + ln2/ln n) so that the
  // sampling and selection phases each get half the failure budget.
  double ell = std::log(1.0 / delta) / ln_n;
  ell = ell * (1.0 + std::log(2.0) / ln_n);
  const double lognk = LogBinomial(n, k);

  // λ* of IMM Eq. (6).
  const double alpha_term = std::sqrt(ell * ln_n + std::log(2.0));
  const double beta_term =
      std::sqrt(kOneMinusInvE * (lognk + ell * ln_n + std::log(2.0)));
  const double lambda_star = 2.0 * n *
                             (kOneMinusInvE * alpha_term + beta_term) *
                             (kOneMinusInvE * alpha_term + beta_term) /
                             (eps * eps);

  // λ' of IMM Eq. (9), with ε' = √2·ε.
  const double eps_prime = std::sqrt(2.0) * eps;
  const double log2_n = std::log2(static_cast<double>(n));
  const double lambda_prime =
      (2.0 + 2.0 * eps_prime / 3.0) *
      (lognk + ell * ln_n + std::log(std::max(log2_n, 1.0))) * n /
      (eps_prime * eps_prime);

  auto sampler = MakeRRSampler(g, model);
  Rng rng(options.seed, 0x696d6dULL);  // "imm"
  RRCollection rr(n);
  auto capped = [&](uint64_t want) {
    return options.max_rr_sets != 0 && want > options.max_rr_sets;
  };

  // Phase 1: estimate LB by geometric search over x = n / 2^i.
  double lb = 1.0;
  bool lb_found = false;
  const int max_i = std::max(1, static_cast<int>(log2_n) - 1);
  for (int i = 1; i <= max_i && !lb_found; ++i) {
    const double x = static_cast<double>(n) / std::pow(2.0, i);
    uint64_t theta_i = CeilToU64(lambda_prime / x);
    if (capped(theta_i)) theta_i = options.max_rr_sets;
    if (theta_i > rr.num_sets()) {
      sampler->Generate(&rr, theta_i - rr.num_sets(), rng);
    }
    GreedyResult greedy = SelectGreedyCelf(rr, k);
    const double est = static_cast<double>(greedy.coverage) * n /
                       static_cast<double>(rr.num_sets());
    if (est >= (1.0 + eps_prime) * x) {
      lb = est / (1.0 + eps_prime);
      lb_found = true;
    }
    if (options.max_rr_sets != 0 && rr.num_sets() >= options.max_rr_sets) {
      break;
    }
  }
  if (!lb_found) lb = std::max(lb, static_cast<double>(k));

  // Phase 1 end: grow to θ = λ*/LB.
  uint64_t theta = std::max<uint64_t>(1, CeilToU64(lambda_star / lb));
  bool was_capped = false;
  if (capped(theta)) {
    theta = options.max_rr_sets;
    was_capped = true;
  }
  if (theta > rr.num_sets()) {
    sampler->Generate(&rr, theta - rr.num_sets(), rng);
  }

  // Phase 2: node selection on the full collection.
  GreedyResult greedy = SelectGreedyCelf(rr, k);

  if (stats != nullptr) {
    stats->lower_bound = lb;
    stats->theta_required = CeilToU64(lambda_star / lb);
    stats->capped = was_capped;
  }

  ImResult result;
  result.seeds = std::move(greedy.seeds);
  result.num_rr_sets = rr.num_sets();
  result.total_rr_size = rr.total_size();
  result.guarantee = 1.0 - 1.0 / std::exp(1.0) - eps;
  return result;
}

}  // namespace opim
