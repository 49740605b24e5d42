#include "baselines/tim.h"

#include <algorithm>
#include <cmath>

#include "rrset/rr_collection.h"
#include "rrset/rr_sampler.h"
#include "select/greedy.h"
#include "support/math_util.h"
#include "support/random.h"

namespace opim {

ImResult RunTim(const Graph& g, DiffusionModel model, uint32_t k, double eps,
                double delta, const TimOptions& options, TimStats* stats) {
  const uint32_t n = g.num_nodes();
  const uint64_t m = g.num_edges();
  OPIM_CHECK_GE(n, 2u);
  OPIM_CHECK_GE(k, 1u);
  OPIM_CHECK_LE(k, n);
  OPIM_CHECK(eps > 0.0 && eps < 1.0);
  OPIM_CHECK(delta > 0.0 && delta < 1.0);
  OPIM_CHECK_MSG(m > 0, "TIM's width estimator needs at least one edge");

  const double ln_n = std::log(static_cast<double>(n));
  const double ell = std::log(1.0 / delta) / ln_n;  // δ = n^-ℓ
  const double log2_n = std::max(std::log2(static_cast<double>(n)), 1.0);

  auto sampler = MakeRRSampler(g, model);
  Rng rng(options.seed, 0x74696dULL);  // "tim"
  auto capped = [&](uint64_t want) {
    return options.max_rr_sets != 0 && want > options.max_rr_sets;
  };
  uint64_t generated = 0;
  uint64_t generated_size = 0;

  // --- Phase 1a: KPT* estimation (TIM Algorithm 2). ---
  double kpt = 1.0;
  {
    RRCollection probe(n);
    std::vector<NodeId> scratch;
    const int max_i = std::max(1, static_cast<int>(log2_n) - 1);
    for (int i = 1; i <= max_i; ++i) {
      uint64_t c_i = CeilToU64((6.0 * ell * ln_n + 6.0 * std::log(log2_n)) *
                               std::pow(2.0, i));
      if (capped(c_i)) c_i = options.max_rr_sets;
      while (probe.num_sets() < c_i) {
        uint64_t cost = sampler->SampleInto(rng, &scratch);
        probe.AddSet(scratch, cost);
        ++generated;
      }
      double sum = 0.0;
      for (RRId id = 0; id < probe.num_sets(); ++id) {
        const double w = static_cast<double>(probe.SetCost(id));
        sum += 1.0 - std::pow(1.0 - w / static_cast<double>(m),
                              static_cast<double>(k));
      }
      const double kappa = sum / static_cast<double>(probe.num_sets());
      if (kappa > 1.0 / std::pow(2.0, i)) {
        kpt = kappa * n / 2.0;
        break;
      }
      if (options.max_rr_sets != 0 && generated >= options.max_rr_sets) {
        break;
      }
    }
    generated_size += probe.total_size();
  }
  kpt = std::max(kpt, 1.0);
  if (stats != nullptr) {
    *stats = TimStats{};
    stats->kpt_star = kpt;
  }

  // --- Phase 1b: TIM+ refinement (intermediate greedy). ---
  if (options.refine_kpt) {
    const double eps_prime = 5.0 * std::cbrt(ell * eps * eps / (ell + k));
    const double lambda_ref = (2.0 + eps_prime) * ell * n * ln_n /
                              (eps_prime * eps_prime);
    uint64_t theta_ref =
        std::max<uint64_t>(1, CeilToU64(lambda_ref / kpt));
    if (!capped(2 * theta_ref) && eps_prime < 1.0) {
      RRCollection pick(n), judge(n);
      sampler->Generate(&pick, theta_ref, rng);
      sampler->Generate(&judge, theta_ref, rng);
      generated += 2 * theta_ref;
      generated_size += pick.total_size() + judge.total_size();
      GreedyResult greedy = SelectGreedyCelf(pick, k);
      const double est = judge.EstimateSpread(greedy.seeds);
      kpt = std::max(kpt, est / (1.0 + eps_prime));
    }
  }
  if (stats != nullptr) stats->kpt_plus = kpt;

  // --- Phase 2: node selection. ---
  const double lambda = (8.0 + 2.0 * eps) * n *
                        (ell * ln_n + LogBinomial(n, k) + std::log(2.0)) /
                        (eps * eps);
  uint64_t theta = std::max<uint64_t>(1, CeilToU64(lambda / kpt));
  if (stats != nullptr) stats->theta_required = theta;
  bool was_capped = false;
  if (capped(theta)) {
    theta = options.max_rr_sets;
    was_capped = true;
  }
  RRCollection rr(n);
  sampler->Generate(&rr, theta, rng);
  generated += theta;
  generated_size += rr.total_size();
  GreedyResult greedy = SelectGreedyCelf(rr, k);

  if (stats != nullptr) stats->capped = was_capped;

  ImResult result;
  result.seeds = std::move(greedy.seeds);
  result.num_rr_sets = generated;
  result.total_rr_size = generated_size;
  result.guarantee = 1.0 - 1.0 / std::exp(1.0) - eps;
  return result;
}

}  // namespace opim
