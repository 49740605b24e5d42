#include "rrset/parallel_generate.h"

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/telemetry.h"
#include "obs/trace.h"
#include "rrset/rr_sampler.h"
#include "support/fault_inject.h"
#include "support/random.h"
#include "support/run_control.h"
#include "support/stopwatch.h"
#include "support/thread_pool.h"

namespace opim {

StagedGeneration::StagedGeneration(const SamplingView& view,
                                   DiffusionModel model, uint64_t count,
                                   uint64_t seed, unsigned shards,
                                   const AliasSampler* root_table,
                                   RunControl* control, uint64_t base_bytes,
                                   bool speculative)
    : view_(view),
      model_(model),
      count_(count),
      seed_(seed),
      root_table_(root_table),
      control_(control),
      base_bytes_(base_bytes),
      speculative_(speculative),
      shards_(shards) {
  OPIM_CHECK_GE(shards, 1u);
  OPIM_CHECK_LE(shards, count);
}

void StagedGeneration::RunShard(unsigned s) {
  OPIM_TR_SPAN1(speculative_ ? "speculate_shard" : "shard", "rrset", "shard",
                s);
  Stopwatch shard_watch;
  auto sampler = MakeRRSampler(view_, model_, root_table_);
  Rng rng(seed_, 0x70617267ULL + s);  // "parg" + shard
  const unsigned shards = this->shards();
  const uint64_t lo = count_ * s / shards;
  const uint64_t hi = count_ * (s + 1) / shards;
  Shard& shard = shards_[s];
  std::vector<NodeId> scratch;
  uint64_t last_published = 0;
  for (uint64_t i = lo; i < hi; ++i) {
    if ((i - lo) % kControlPollStride == 0) {
      if (abort_.load(std::memory_order_relaxed)) break;
      if (control_ != nullptr) {
        // Publish this shard's staging delta, then poll with the shared
        // total: the footprint the control sees is the caller's base plus
        // what all shards hold *compressed* (the raw member lists are
        // never materialized on this path).
        const uint64_t bytes = shard.encoder.StagingBytes();
        published_bytes_.fetch_add(bytes - last_published,
                                   std::memory_order_relaxed);
        last_published = bytes;
        if (control_->Poll(base_bytes_ +
                           published_bytes_.load(std::memory_order_relaxed))) {
          break;
        }
      }
    }
    if (OPIM_FAULT_POINT("rrset.worker_throw")) {
      throw std::runtime_error("injected fault: rrset.worker_throw");
    }
    if (speculative_ && OPIM_FAULT_POINT("rrset.speculation_throw")) {
      throw std::runtime_error("injected fault: rrset.speculation_throw");
    }
    const uint64_t cost = sampler->SampleInto(rng, &scratch);
    // The encoder sorts and compresses the set immediately, while its
    // members are cache-hot; a mid-Add failure leaves the shard
    // ingestable (see ShardEncoder).
    shard.encoder.Add(&scratch, cost);
    ++shard.sets;
    shard.nodes += scratch.size();
    shard.edges += cost;
  }
  shard.alias = sampler->alias_draws();
  // Build the shard's postings here, on the worker that sampled it, so
  // the merge only appends. An aborted batch is never ingested.
  if (!abort_.load(std::memory_order_relaxed)) {
    shard.finished = shard.encoder.Finish(view_.graph().num_nodes());
  }
  OPIM_TM_HISTOGRAM_RECORD("opim.rrset.shard_us",
                           shard_watch.ElapsedSeconds() * 1e6);
}

uint64_t StagedGeneration::TotalSets() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) total += s.sets;
  return total;
}

uint64_t StagedGeneration::IngestInto(RRCollection* collection,
                                      ThreadPool* pool) {
  std::vector<CompressedRRShard> out;
  out.reserve(shards_.size());
  Shard total;
  for (Shard& s : shards_) {
    // A shard whose worker threw never reached its own Finish.
    if (!s.finished.finalized()) {
      s.finished = s.encoder.Finish(view_.graph().num_nodes());
    }
    out.push_back(std::move(s.finished));
    total.sets += s.sets;
    total.nodes += s.nodes;
    total.edges += s.edges;
    total.alias += s.alias;
  }
  collection->AddCompressedShards(std::move(out), pool);
  OPIM_TM_COUNTER_ADD("opim.rrset.sets_generated", total.sets);
  OPIM_TM_COUNTER_ADD("opim.rrset.nodes_total", total.nodes);
  OPIM_TM_COUNTER_ADD("opim.rrset.edges_examined", total.edges);
  OPIM_TM_COUNTER_ADD("opim.rrset.alias_draws", total.alias);
  return total.sets;
}

ShardRun::ShardRun(std::span<StagedGeneration* const> stages,
                   ThreadPool* pool)
    : stages_(stages.begin(), stages.end()) {
  unsigned shards = 0;
  for (const StagedGeneration* stage : stages_) shards += stage->shards();
  if (pool == nullptr || shards <= 1) return;
  // A TaskGroup (not the pool's global barrier) tracks the shards: their
  // completion — and any exception they raise — stays out of foreground
  // Wait()/ParallelFor calls that CELF, CoverBitset kernels or an index
  // merge may issue on the same pool while the batches run.
  group_.emplace(pool);
  for (StagedGeneration* stage : stages_) {
    for (unsigned s = 0; s < stage->shards(); ++s) {
      group_->Submit([stage, s] { stage->RunShard(s); });
    }
  }
}

void ShardRun::Finish(RunControl* control) {
  // With a control we degrade — record the failure, keep every completed
  // staged shard — and without one we propagate, preserving the
  // uncontrolled contract.
  try {
    if (group_) {
      group_->Wait();
    } else {
      for (StagedGeneration* stage : stages_) {
        for (unsigned s = 0; s < stage->shards(); ++s) stage->RunShard(s);
      }
    }
  } catch (...) {
    if (control == nullptr) throw;
    control->TripWorkerFailure();
  }
}

void ParallelGenerate(const Graph& g, DiffusionModel model,
                      RRCollection* collection, uint64_t count,
                      uint64_t seed, unsigned num_threads,
                      std::span<const double> root_weights, ThreadPool* pool,
                      const SamplingView* view, RunControl* control) {
  if (count == 0) return;
  OPIM_TR_SPAN1("generate", "rrset", "count", count);
  OPIM_TM_SCOPED_TIMER("opim.rrset.generate_us");
  num_threads = pool != nullptr ? pool->num_threads()
                                : ThreadPool::ResolveThreadCount(num_threads);
  const unsigned shards = GenerateShardCount(count, num_threads);

  // A temporary pool is only created when the caller did not supply one
  // (and more than one shard exists); it parallelizes the view build below,
  // the shards, and the index merge inside AddCompressedShards, then
  // reports its stats before destruction.
  std::unique_ptr<ThreadPool> local_pool;
  if (shards > 1 && pool == nullptr) {
    local_pool = std::make_unique<ThreadPool>(shards);
    pool = local_pool.get();
  }

  // Shared read-only sampling state: built once here (not once per shard)
  // unless the caller already cached a view across calls.
  std::unique_ptr<const SamplingView> local_view;
  if (view == nullptr) {
    local_view = std::make_unique<const SamplingView>(
        g, SamplingViewPartsFor(model), pool);
    view = local_view.get();
  } else {
    OPIM_CHECK_MSG(&view->graph() == &g,
                   "SamplingView was built for a different graph");
  }

  // Weighted roots: one shared alias table instead of one copy per shard.
  AliasSampler root_table;
  if (!root_weights.empty()) {
    OPIM_CHECK_EQ(root_weights.size(), g.num_nodes());
    root_table.Build(
        std::vector<double>(root_weights.begin(), root_weights.end()));
  }
  const AliasSampler* shared_root = root_table.empty() ? nullptr : &root_table;

  const uint64_t base_bytes =
      control != nullptr ? collection->MemoryUsage() : 0;
  StagedGeneration stage(*view, model, count, seed, shards, shared_root,
                         control, base_bytes, /*speculative=*/false);
  StagedGeneration* const stages[] = {&stage};
  ShardRun(stages, pool).Finish(control);
  stage.IngestInto(collection, pool);

  OPIM_TM_STMT({
    // Caller-owned pools accumulate lifetime stats the caller reports once
    // (e.g. RunOpimC after its final doubling); report here only for the
    // pool this call created and is about to destroy.
    if (local_pool != nullptr) {
      const ThreadPoolStats stats = local_pool->Stats();
      OPIM_TM_COUNTER_ADD("opim.pool.tasks_run", stats.tasks_run);
      OPIM_TM_COUNTER_ADD("opim.pool.queue_wait_us", stats.queue_wait_us);
      OPIM_TM_COUNTER_ADD("opim.pool.idle_wait_us", stats.idle_wait_us);
    }
  });
}

}  // namespace opim
