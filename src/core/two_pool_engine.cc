#include "core/two_pool_engine.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "obs/log.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "rrset/rr_sampler.h"
#include "rrset/snapshot.h"

namespace opim {

namespace {

/// R2, never selected on, keeps no index.
constexpr RRStoreOptions kJudgeStore{.index = false};

/// Σ w_v over validated weights, or n for unit weights (empty span).
double ObjectiveScale(uint32_t n, std::span<const double> weights) {
  if (weights.empty()) return n;
  OPIM_CHECK_EQ(weights.size(), n);
  double scale = 0.0;
  for (double w : weights) {
    OPIM_CHECK_GE(w, 0.0);
    scale += w;
  }
  OPIM_CHECK_MSG(scale > 0.0, "node weights must not all be zero");
  return scale;
}

}  // namespace

TwoPoolEngine::TwoPoolEngine(const Graph& g, DiffusionModel model,
                             std::span<const double> node_weights,
                             unsigned num_threads)
    : model_(model),
      weights_(node_weights.begin(), node_weights.end()),
      scale_(ObjectiveScale(g.num_nodes(), node_weights)),
      workers_(ThreadPool::ResolveThreadCount(num_threads)),
      view_(SamplingView::For(g, SamplingViewPartsFor(model), &workers_)),
      r1_(g.num_nodes()),
      r2_(g.num_nodes(), kJudgeStore) {
  if (!weights_.empty()) root_.Build(weights_);
}

TwoPoolEngine::~TwoPoolEngine() {
  if (shards_) Discard();
  ReportPoolStats();
}

double TwoPoolEngine::MinSpread(uint32_t k) const {
  if (weights_.empty()) return k;
  std::vector<double> sorted = weights_;
  std::nth_element(sorted.begin(), sorted.begin() + (k - 1), sorted.end(),
                   std::greater<double>());
  double top = 0.0;
  for (uint32_t i = 0; i < k; ++i) top += sorted[i];
  OPIM_CHECK_MSG(top > 0.0, "top-k node weights must be positive");
  return top;
}

void TwoPoolEngine::Stage(uint64_t count1, uint64_t seed1, uint64_t count2,
                          uint64_t seed2, RunControl* control,
                          bool speculative) {
  OPIM_CHECK(!shards_);
  const uint64_t count[2] = {count1, count2};
  const uint64_t seed[2] = {seed1, seed2};
  const uint64_t base_bytes = control != nullptr ? PoolBytes() : 0;
  // One group for both batches, joined by Merge or Discard alone: no other
  // fan-out on the pool waits for the shards, and a shard's exception
  // reaches only that join.
  shards_.emplace(&workers_);
  for (int i : {0, 1}) {
    if (count[i] == 0) continue;
    StagedGeneration& stage = staged_[i].emplace(
        view_, model_, count[i], seed[i],
        GenerateShardCount(count[i], num_threads()), root(), control,
        base_bytes, speculative, pool(i).indexed());
    for (unsigned s = 0; s < stage.shards(); ++s) {
      shards_->Submit([&stage, s] { stage.RunShard(s); });
    }
  }
}

uint64_t TwoPoolEngine::Merge(RunControl* control) {
  OPIM_CHECK(shards_);
  try {
    shards_->Wait();
  } catch (...) {
    if (control == nullptr) {
      ClearStage();
      throw;
    }
    control->TripWorkerFailure();
  }
  uint64_t sets = 0;
  for (int i : {0, 1}) {
    if (staged_[i]) sets += staged_[i]->IngestInto(&pool(i), &workers_);
  }
  ClearStage();
  ReportPoolStats();
  return sets;
}

uint64_t TwoPoolEngine::Discard() {
  OPIM_CHECK(shards_);
  for (auto& stage : staged_) {
    if (stage) stage->Abort();
  }
  try {
    shards_->Wait();
  } catch (...) {
  }
  uint64_t discarded = 0;
  for (auto& stage : staged_) {
    if (stage) discarded += stage->TotalSets();
  }
  ClearStage();
  return discarded;
}

void TwoPoolEngine::ClearStage() {
  shards_.reset();
  for (auto& stage : staged_) stage.reset();
}

void TwoPoolEngine::FloorEmptyPools(
    RunControl* control, const std::function<uint64_t(int)>& seed_for) {
  if (control == nullptr || !control->Stopped()) return;
  uint64_t count[2] = {}, seed[2] = {};
  for (int i : {0, 1}) {
    if (pool(i).num_sets() == 0) {
      count[i] = 1;
      seed[i] = seed_for(i);
    }
  }
  if (count[0] + count[1] == 0) return;
  Stage(count[0], seed[0], count[1], seed[1], nullptr, /*speculative=*/false);
  Merge(nullptr);
}

GreedyResult TwoPoolEngine::Select(
    uint32_t k, const std::vector<uint32_t>& trace_ks) const {
  return SelectGreedyCelf(r1_, k, trace_ks);
}

std::vector<TwoPoolEngine::Certificate> TwoPoolEngine::Certify(
    const GreedyResult& greedy, BoundKind kind, double delta1,
    double delta2) const {
  const std::vector<uint64_t> lambda2_at = r2_.CoverageByPrefix(greedy.seeds);
  std::vector<uint32_t> sizes = greedy.trace_ks;
  if (sizes.empty()) {
    sizes.push_back(static_cast<uint32_t>(greedy.seeds.size()));
  }
  std::vector<Certificate> certs;
  certs.reserve(sizes.size());
  for (uint32_t j : sizes) {
    Certificate& c = certs.emplace_back();
    c.k = j;
    c.lambda2 = lambda2_at[j];
    c.sigma_lower = SigmaLower(c.lambda2, r2_.num_sets(), scale_, delta2);
    c.sigma_upper =
        SigmaUpper(kind, greedy, r1_.num_sets(), scale_, delta1, j);
    c.alpha = ApproxRatio(c.sigma_lower, c.sigma_upper);
  }
  return certs;
}

double TwoPoolEngine::UpperBound(const GreedyResult& greedy, BoundKind kind,
                                 double delta1) const {
  return SigmaUpper(kind, greedy, r1_.num_sets(), scale_, delta1);
}

void TwoPoolEngine::EnableSpill(const std::string& dir) {
  for (RRCollection* rr : {&r1_, &r2_}) {
    const Status armed = rr->EnableSpill({.dir = dir});
    if (!armed.ok()) {
      // A memory budget (if armed) then stops the run the classic way.
      OPIM_LOG(kWarn) << "spill tier unavailable: " << armed.ToString();
      return;
    }
  }
}

void TwoPoolEngine::MaybeSpill(RunControl* control) {
  // The target scales with the pool, not the budget, so eviction bites
  // even when the unspillable index dominates the footprint; the sticky
  // target keeps CELF's fault-ins from re-accumulating the whole pool.
  if (control == nullptr || control->Stopped()) return;
  const uint64_t budget = control->memory_budget_bytes();
  if (budget == 0 || PoolBytes() <= budget / 2) return;
  for (RRCollection* rr : {&r1_, &r2_}) {
    if (!rr->spill_enabled()) continue;
    const Result<uint64_t> spilled =
        rr->SpillColdChunks(rr->CompressedMemberBytes() / 4);
    if (!spilled.ok()) {
      OPIM_LOG(kError) << "spill failed: " << spilled.status().ToString();
      control->TripSpillFailure();
      return;
    }
  }
}

Result<uint64_t> TwoPoolEngine::Save(const SnapshotRunState& run,
                                     const std::string& path) const {
  return SaveSnapshot(run, r1_, r2_, path);
}

void TwoPoolEngine::Restore(RRPoolSnapshot* snapshot) {
  OPIM_CHECK_EQ(snapshot->r1.num_nodes(), r1_.num_nodes());
  OPIM_CHECK_EQ(snapshot->r2.num_nodes(), r2_.num_nodes());
  r1_ = std::move(snapshot->r1);
  r2_ = std::move(snapshot->r2);
  // Snapshots store no index; R1 gets its own now, on the workers, so the
  // first CELF pass starts from the counts a live run would have.
  r1_.BuildIndex(&workers_);
}

void TwoPoolEngine::ReportPoolStats() {
  OPIM_TM_STMT({
    // tasks_run growing across batches under one pool is the observable
    // signature of worker reuse (no per-call pool churn).
    const ThreadPoolStats stats = workers_.Stats();
    OPIM_TM_COUNTER_ADD("opim.pool.tasks_run",
                        stats.tasks_run - reported_.tasks_run);
    OPIM_TM_COUNTER_ADD("opim.pool.queue_wait_us",
                        stats.queue_wait_us - reported_.queue_wait_us);
    OPIM_TM_COUNTER_ADD("opim.pool.idle_wait_us",
                        stats.idle_wait_us - reported_.idle_wait_us);
    reported_ = stats;
  });
}

}  // namespace opim
