#include "baselines/ssa_fix.h"

#include <algorithm>
#include <cmath>

#include "rrset/rr_collection.h"
#include "rrset/rr_sampler.h"
#include "select/greedy.h"
#include "support/math_util.h"
#include "support/random.h"

namespace opim {

namespace {

/// Largest ε_s with (1-1/e)(1-ε_s)/((1+ε_s)²) >= 1-1/e-ε, by bisection.
double SolveEpsSplit(double eps) {
  const double target = kOneMinusInvE - eps;
  if (target <= 0.0) return 0.5;  // any split works; pick a sane default
  double lo = 0.0, hi = 1.0;
  for (int it = 0; it < 64; ++it) {
    double mid = 0.5 * (lo + hi);
    double val = kOneMinusInvE * (1.0 - mid) / ((1.0 + mid) * (1.0 + mid));
    (val >= target ? lo : hi) = mid;
  }
  return lo;
}

}  // namespace

ImResult RunSsaFix(const Graph& g, DiffusionModel model, uint32_t k,
                   double eps, double delta, const SsaFixOptions& options,
                   SsaFixStats* stats) {
  const uint32_t n = g.num_nodes();
  OPIM_CHECK_GE(n, 2u);
  OPIM_CHECK_GE(k, 1u);
  OPIM_CHECK_LE(k, n);
  OPIM_CHECK(eps > 0.0 && eps < 1.0);
  OPIM_CHECK(delta > 0.0 && delta < 1.0);

  const double eps_s = SolveEpsSplit(eps);
  OPIM_CHECK_GT(eps_s, 0.0);

  // θ_max cap from Lemma 6.1 at failure budget δ/3 (same worst case the
  // other doubling algorithms use), and the round budget it implies.
  const double lognk = LogBinomial(n, k);
  const double ln6d = std::log(6.0 / delta);
  const double lm_inner = kOneMinusInvE * std::sqrt(ln6d) +
                          std::sqrt(kOneMinusInvE * (lognk + ln6d));
  const double theta_max =
      2.0 * n * lm_inner * lm_inner / (eps * eps * k);
  const uint64_t theta_start = std::max<uint64_t>(
      1, CeilToU64((2.0 + 2.0 * eps_s / 3.0) * std::log(3.0 / delta) /
                   (eps_s * eps_s)));
  const uint32_t i_max = std::max<uint32_t>(
      1, CeilLog2(CeilToU64(std::max(theta_max / theta_start, 2.0))));
  const double delta_round = delta / (3.0 * i_max);

  // Dagum et al. coverage threshold for a (1±ε2)-accurate stare estimate.
  const double upsilon = 1.0 + (1.0 + eps_s) * (2.0 + 2.0 * eps_s / 3.0) *
                                   std::log(2.0 / delta_round) /
                                   (eps_s * eps_s);

  auto sampler = MakeRRSampler(g, model);
  Rng rng(options.seed, 0x737361ULL);  // "ssa"
  RRCollection r1(n), r2(n);
  if (stats != nullptr) {
    *stats = SsaFixStats{};
    stats->eps_split = eps_s;
  }

  auto total_generated = [&] {
    return static_cast<uint64_t>(r1.num_sets()) + r2.num_sets();
  };

  ImResult result;
  result.guarantee = 1.0 - 1.0 / std::exp(1.0) - eps;

  uint64_t theta1 = theta_start;
  GreedyResult greedy;
  for (uint32_t i = 1;; ++i) {
    if (theta1 > r1.num_sets()) {
      sampler->Generate(&r1, theta1 - r1.num_sets(), rng);
    }
    if (stats != nullptr) stats->iterations = i;
    greedy = SelectGreedyCelf(r1, k);
    const double sigma1 = static_cast<double>(greedy.coverage) * n /
                          static_cast<double>(r1.num_sets());

    // Stare: grow the judge pool until the coverage stopping rule fires
    // (or the judge pool catches up with R1 — then S* simply isn't
    // influential enough at this sample size; double and retry).
    uint64_t lambda2 = r2.CoverageOf(greedy.seeds);
    while (static_cast<double>(lambda2) < upsilon &&
           r2.num_sets() < std::max<uint64_t>(theta1, theta_start) &&
           (options.max_rr_sets == 0 ||
            total_generated() < options.max_rr_sets)) {
      uint64_t batch = std::max<uint64_t>(64, r2.num_sets() / 2);
      sampler->Generate(&r2, batch, rng);
      lambda2 = r2.CoverageOf(greedy.seeds);
    }

    if (static_cast<double>(lambda2) >= upsilon) {
      const double sigma2 = static_cast<double>(lambda2) * n /
                            static_cast<double>(r2.num_sets());
      const double lb = sigma2 / (1.0 + eps_s);
      const double theta1_need =
          2.0 * n * std::log(1.0 / delta_round) / (eps_s * eps_s * lb);
      if (static_cast<double>(r1.num_sets()) >= theta1_need &&
          sigma1 <= (1.0 + eps_s) * sigma2) {
        if (stats != nullptr) stats->stopped_early = true;
        break;
      }
    }

    if (static_cast<double>(r1.num_sets()) >= theta_max) break;
    if (options.max_rr_sets != 0 &&
        total_generated() >= options.max_rr_sets) {
      if (stats != nullptr) stats->capped = true;
      break;
    }
    theta1 *= 2;
  }

  result.seeds = std::move(greedy.seeds);
  result.num_rr_sets = total_generated();
  result.total_rr_size = r1.total_size() + r2.total_size();
  return result;
}

}  // namespace opim
