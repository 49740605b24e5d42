#include "baselines/borgs_online.h"

#include "bounds/bounds.h"
#include "select/greedy.h"

namespace opim {

BorgsOnline::BorgsOnline(const Graph& g, DiffusionModel model, uint32_t k,
                         uint64_t seed)
    : graph_(g),
      k_(k),
      sampler_(MakeRRSampler(g, model)),
      rng_(seed, 0x626f7267ULL),  // "borg"
      rr_(g.num_nodes()) {
  OPIM_CHECK_GE(k, 1u);
  OPIM_CHECK_LE(k, g.num_nodes());
}

void BorgsOnline::Advance(uint64_t count) {
  std::vector<NodeId> scratch;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t cost = sampler_->SampleInto(rng_, &scratch);
    rr_.AddSet(scratch, cost);
    MaybeSnapshot();
  }
}

void BorgsOnline::MaybeSnapshot() {
  if (rr_.total_edges_examined() < next_power_) return;
  // γ crossed at least one power of two; snapshot at the largest one <= γ.
  while (next_power_ * 2 <= rr_.total_edges_examined()) next_power_ *= 2;
  GreedyResult greedy = SelectGreedyCelf(rr_, k_);
  last_snapshot_.seeds = std::move(greedy.seeds);
  last_snapshot_.gamma = next_power_;
  last_snapshot_.alpha = BorgsApproxGuarantee(next_power_, graph_.num_nodes(),
                                              graph_.num_edges());
  next_power_ *= 2;
}

}  // namespace opim
