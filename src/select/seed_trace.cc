#include "select/seed_trace.h"

#include <algorithm>
#include <utility>

#include "obs/telemetry.h"
#include "obs/trace.h"
#include "support/macros.h"

namespace opim {

void SeedTrace::Begin(uint32_t k) {
  k_ = k;
  armed_ = true;
  judged_ = false;
  seeds_.clear();
  coverage_at_.assign(uint64_t{k} + 1, 0);
  lambda2_at_.clear();
  topj_.assign((uint64_t{k} + 1) * (uint64_t{k} + 1), 0);
}

uint64_t* SeedTrace::PrefixRow(uint32_t i) {
  OPIM_DCHECK(armed_);
  OPIM_DCHECK_LE(i, k_);
  return topj_.data() + uint64_t{i} * (uint64_t{k_} + 1);
}

void SeedTrace::RecordCoverage(uint32_t i, uint64_t coverage) {
  OPIM_DCHECK(armed_);
  OPIM_DCHECK_LE(i, k_);
  coverage_at_[i] = coverage;
}

void SeedTrace::RecordSeeds(std::vector<NodeId> seeds) {
  OPIM_DCHECK(armed_);
  seeds_ = std::move(seeds);
}

void SeedTrace::AttributeJudgeCoverage(const RRCollection& r2) {
  OPIM_DCHECK(armed_);
  OPIM_TR_SPAN1("judge_attrib", "select", "k", seeds_.size());
  OPIM_TM_SCOPED_TIMER("opim.select.judge_attrib_us");
  // When n < k there are fewer real seeds than prefixes; Λ2 is flat from
  // the last one (no further node exists to cover anything).
  const std::vector<uint64_t> at = r2.CoverageByPrefix(seeds_);
  lambda2_at_.assign(coverage_at_.size(), at.back());
  std::copy(at.begin(), at.end(), lambda2_at_.begin());
  judged_ = true;
}

void SeedTrace::SetBoundParams(uint64_t theta1, uint64_t theta2, double scale,
                               double delta1, double delta2) {
  theta1_ = theta1;
  theta2_ = theta2;
  scale_ = scale;
  delta1_ = delta1;
  delta2_ = delta2;
}

std::span<const NodeId> SeedTrace::SeedsAt(uint32_t k_prime) const {
  OPIM_CHECK_LE(k_prime, k_);
  // seeds_ has min(k, n) entries: when n < k' there simply are no more
  // nodes, mirroring the truncated result a fresh k'-selection returns.
  return std::span<const NodeId>(
      seeds_.data(), std::min<size_t>(k_prime, seeds_.size()));
}

uint64_t SeedTrace::CoverageAt(uint32_t i) const {
  OPIM_CHECK_LE(i, k_);
  return coverage_at_[i];
}

uint64_t SeedTrace::Lambda2At(uint32_t i) const {
  OPIM_CHECK_MSG(judged_, "Lambda2At requires AttributeJudgeCoverage");
  OPIM_CHECK_LE(i, k_);
  return lambda2_at_[i];
}

uint64_t SeedTrace::TopMarginalAt(uint32_t i, uint32_t j) const {
  OPIM_CHECK_LE(i, k_);
  OPIM_CHECK_LE(j, k_);
  return topj_[uint64_t{i} * (uint64_t{k_} + 1) + j];
}

}  // namespace opim
