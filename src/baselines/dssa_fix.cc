#include "baselines/dssa_fix.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "rrset/rr_collection.h"
#include "rrset/rr_sampler.h"
#include "select/greedy.h"
#include "support/math_util.h"
#include "support/random.h"

namespace opim {

ImResult RunDssaFix(const Graph& g, DiffusionModel model, uint32_t k,
                    double eps, double delta, const DssaFixOptions& options,
                    DssaFixStats* stats) {
  const uint32_t n = g.num_nodes();
  OPIM_CHECK_GE(n, 2u);
  OPIM_CHECK_GE(k, 1u);
  OPIM_CHECK_LE(k, n);
  OPIM_CHECK(eps > 0.0 && eps < 1.0);
  OPIM_CHECK(delta > 0.0 && delta < 1.0);

  // Lines 1-3 of Algorithm 3.
  const double lognk = LogBinomial(n, k);
  const double theta_max = 8.0 * kOneMinusInvE *
                           (std::log(6.0 / delta) + lognk) * n /
                           (eps * eps * k);
  const double i_max_arg = 2.0 * theta_max * eps * eps /
                           ((2.0 + 2.0 * eps / 3.0) * std::log(3.0 / delta));
  const uint32_t i_max =
      std::max<uint32_t>(1, CeilLog2(CeilToU64(std::max(i_max_arg, 2.0))));
  const double ln3imaxd = std::log(3.0 * i_max / delta);
  const uint64_t theta0 = std::max<uint64_t>(
      1, CeilToU64((2.0 + 2.0 * eps / 3.0) * ln3imaxd / (eps * eps)));
  const double cov_threshold =
      1.0 + (1.0 + eps) * (2.0 + 2.0 * eps / 3.0) * ln3imaxd / (eps * eps);

  auto sampler = MakeRRSampler(g, model);
  Rng rng(options.seed, 0x64737361ULL);  // "dssa"

  // The stream R_1, R_2, …: at round i, R1 = first θ'0·2^{i-1} sets and
  // R2 = the next θ'0·2^{i-1}. The previous round's R2 rolls into this
  // round's R1, so we keep the raw R2 sets to append next round.
  RRCollection r1(n);
  std::vector<std::pair<std::vector<NodeId>, uint64_t>> raw_r2;
  std::vector<NodeId> scratch;
  uint64_t generated = 0;

  auto sample_raw = [&](uint64_t count) {
    for (uint64_t j = 0; j < count; ++j) {
      uint64_t cost = sampler->SampleInto(rng, &scratch);
      raw_r2.emplace_back(scratch, cost);
      ++generated;
    }
  };

  ImResult result;
  result.guarantee = 1.0 - 1.0 / std::exp(1.0) - eps;
  if (stats != nullptr) *stats = DssaFixStats{};

  const double target_factor = 1.0 - 1.0 / std::exp(1.0) - eps;
  GreedyResult greedy;
  for (uint32_t i = 1;; ++i) {
    const uint64_t half = theta0 << (i - 1);  // θ'0 · 2^{i-1}

    // Roll last round's R2 into R1, then draw the new R2.
    for (auto& [nodes, cost] : raw_r2) r1.AddSet(nodes, cost);
    raw_r2.clear();
    OPIM_CHECK_GE(half, r1.num_sets());
    uint64_t need_r1 = half - r1.num_sets();
    for (uint64_t j = 0; j < need_r1; ++j) {
      uint64_t cost = sampler->SampleInto(rng, &scratch);
      r1.AddSet(scratch, cost);
      ++generated;
    }
    sample_raw(half);  // new R2
    RRCollection r2(n);
    for (auto& [nodes, cost] : raw_r2) r2.AddSet(nodes, cost);

    if (stats != nullptr) stats->iterations = i;
    greedy = SelectGreedyCelf(r1, k);

    if (static_cast<double>(greedy.coverage) >= cov_threshold) {
      const double sigma1 = static_cast<double>(greedy.coverage) * n /
                            static_cast<double>(r1.num_sets());
      const double lambda2 =
          static_cast<double>(r2.CoverageOf(greedy.seeds));
      const double sigma2 =
          lambda2 * n / static_cast<double>(r2.num_sets());
      if (sigma2 > 0.0) {
        const double pow2 = std::pow(2.0, static_cast<double>(i) - 1.0);
        const double eps_a = sigma1 / sigma2 - 1.0;
        const double eps_b =
            eps * std::sqrt(n * (1.0 + eps) / (pow2 * sigma2));
        const double eps_c =
            eps * std::sqrt(n * (1.0 + eps) *
                            std::max(target_factor, 0.0) /
                            ((1.0 + eps / 3.0) * pow2 * sigma2));
        const double eps_i =
            (eps_a + eps_b + eps_a * eps_b) * target_factor +
            kOneMinusInvE * eps_c;
        if (eps_i <= eps) {
          if (stats != nullptr) stats->stopped_early = true;
          break;
        }
      }
    }
    if (r1.num_sets() >= theta_max) break;
    if (options.max_rr_sets != 0 && generated >= options.max_rr_sets) {
      if (stats != nullptr) stats->capped = true;
      break;
    }
  }

  result.seeds = std::move(greedy.seeds);
  result.num_rr_sets = generated;
  result.total_rr_size = r1.total_size();
  for (const auto& [nodes, cost] : raw_r2) result.total_rr_size += nodes.size();
  return result;
}

}  // namespace opim
