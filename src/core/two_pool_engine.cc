#include "core/two_pool_engine.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "obs/log.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "rrset/snapshot.h"
#include "select/seed_trace.h"

namespace opim {

namespace {

/// Engine pools never answer SetCost (only aggregate γ), so they drop the
/// 8 bytes/set cost column.
constexpr RRStoreOptions kEngineStore{.retain_set_costs = false};

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
      threads_(ThreadPool::ResolveThreadCount(num_threads)),
      workers_(threads_ > 1 ? std::make_unique<ThreadPool>(threads_)
                            : nullptr),
      view_(g, SamplingViewPartsFor(model), workers_.get()),
      r1_(g.num_nodes(), kEngineStore),
      r2_(g.num_nodes(), kEngineStore) {
  if (!weights_.empty()) root_.Build(weights_);
}

TwoPoolEngine::~TwoPoolEngine() {
  if (run_) Discard();
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

void TwoPoolEngine::SetThreads(unsigned num_threads) {
  OPIM_CHECK(!run_);
  threads_ = ThreadPool::ResolveThreadCount(num_threads);
  const unsigned have = workers_ != nullptr ? workers_->num_threads() : 1;
  if (have == threads_) return;
  ReportPoolStats();
  workers_.reset();
  reported_ = {};
  if (threads_ > 1) workers_ = std::make_unique<ThreadPool>(threads_);
}

void TwoPoolEngine::Stage(uint64_t count1, uint64_t seed1, uint64_t count2,
                          uint64_t seed2, RunControl* control,
                          bool speculative) {
  OPIM_CHECK(!run_);
  const uint64_t count[2] = {count1, count2};
  const uint64_t seed[2] = {seed1, seed2};
  const uint64_t base_bytes = control != nullptr ? PoolBytes() : 0;
  std::vector<StagedGeneration*> stages;
  for (int i : {0, 1}) {
    if (count[i] == 0) continue;
    staged_[i].emplace(view_, model_, count[i], seed[i],
                       GenerateShardCount(count[i], threads_), root(),
                       control, base_bytes, speculative);
    stages.push_back(&*staged_[i]);
  }
  run_.emplace(stages, workers_.get());
}

uint64_t TwoPoolEngine::Merge(RunControl* control) {
  OPIM_CHECK(run_);
  try {
    run_->Finish(control);
  } catch (...) {
    ClearStage();
    throw;
  }
  uint64_t sets = 0;
  for (int i : {0, 1}) {
    if (staged_[i]) sets += staged_[i]->IngestInto(&pool(i), workers_.get());
  }
  ClearStage();
  ReportPoolStats();
  return sets;
}

uint64_t TwoPoolEngine::Discard() {
  OPIM_CHECK(run_);
  for (auto& stage : staged_) {
    if (stage) stage->Abort();
  }
  try {
    run_->Finish(nullptr);
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
  run_.reset();
  for (auto& stage : staged_) stage.reset();
}

void TwoPoolEngine::SampleSerial(uint64_t count, Rng& rng, bool* to_r1,
                                 RunControl* control) {
  if (serial_sampler_ == nullptr) {
    serial_sampler_ = MakeRRSampler(view_, model_, root());
  }
  const uint64_t alias_before = serial_sampler_->alias_draws();
  uint64_t generated = 0;
  uint64_t nodes_total = 0;
  uint64_t edges_total = 0;
  for (uint64_t i = 0; i < count; ++i) {
    // The exact footprint is capacity arithmetic, so the poll is O(1).
    if (control != nullptr && i % kControlPollStride == 0 &&
        control->Poll(Footprint()) && r1_.num_sets() > 0 &&
        r2_.num_sets() > 0) {
      break;
    }
    const uint64_t cost = serial_sampler_->SampleInto(rng, &serial_scratch_);
    nodes_total += serial_scratch_.size();
    edges_total += cost;
    (*to_r1 ? r1_ : r2_).AddSet(serial_scratch_, cost);
    *to_r1 = !*to_r1;
    ++generated;
  }
  OPIM_TM_COUNTER_ADD("opim.rrset.sets_generated", generated);
  OPIM_TM_COUNTER_ADD("opim.rrset.nodes_total", nodes_total);
  OPIM_TM_COUNTER_ADD("opim.rrset.edges_examined", edges_total);
  OPIM_TM_COUNTER_ADD("opim.rrset.alias_draws",
                      serial_sampler_->alias_draws() - alias_before);
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

GreedyResult TwoPoolEngine::Select(uint32_t k,
                                   const SelectOptions& options) const {
  CelfOptions celf;
  celf.pool = workers_.get();
  celf.after_initial_gains = options.after_initial_gains;
  if (options.incremental) celf.state = &state_;
  celf.seed_trace = options.seed_trace;
  return SelectGreedyCelf(r1_, k, options.with_trace, celf);
}

TwoPoolEngine::Certificate TwoPoolEngine::Certify(
    const GreedyResult& greedy, BoundKind kind, double delta1,
    double delta2) const {
  Certificate c;
  c.lambda2 = r2_.CoverageOf(greedy.seeds);
  c.sigma_lower = SigmaLower(c.lambda2, r2_.num_sets(), scale_, delta2);
  c.sigma_upper = UpperBound(greedy, kind, delta1);
  c.alpha = ApproxRatio(c.sigma_lower, c.sigma_upper);
  return c;
}

double TwoPoolEngine::UpperBound(const GreedyResult& greedy, BoundKind kind,
                                 double delta1) const {
  return SigmaUpper(kind, greedy, r1_.num_sets(), scale_, delta1);
}

void TwoPoolEngine::CertifyTrace(SeedTrace* trace, double delta1,
                                 double delta2) const {
  trace->SetBoundParams(r1_.num_sets(), r2_.num_sets(), scale_, delta1,
                        delta2);
  trace->AttributeJudgeCoverage(r2_);
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
  // Snapshots store no index; build it now, on the workers, so the first
  // CELF pass starts from the state a live run would have and later
  // concurrent reads never build it lazily.
  r1_.EnsureIndex(workers_.get());
  r2_.EnsureIndex(workers_.get());
}

void TwoPoolEngine::ReportPoolStats() {
  OPIM_TM_STMT({
    // tasks_run growing across batches under one pool is the observable
    // signature of worker reuse (no per-call pool churn).
    if (workers_ != nullptr) {
      const ThreadPoolStats stats = workers_->Stats();
      OPIM_TM_COUNTER_ADD("opim.pool.tasks_run",
                          stats.tasks_run - reported_.tasks_run);
      OPIM_TM_COUNTER_ADD("opim.pool.queue_wait_us",
                          stats.queue_wait_us - reported_.queue_wait_us);
      OPIM_TM_COUNTER_ADD("opim.pool.idle_wait_us",
                          stats.idle_wait_us - reported_.idle_wait_us);
      reported_ = stats;
    }
  });
}

}  // namespace opim
