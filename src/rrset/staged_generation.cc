#include "rrset/staged_generation.h"

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

namespace opim {

StagedGeneration::StagedGeneration(const SamplingView& view,
                                   DiffusionModel model, uint64_t count,
                                   uint64_t seed, unsigned shards,
                                   const AliasSampler* root_table,
                                   RunControl* control, uint64_t base_bytes,
                                   bool speculative, bool postings)
    : view_(view),
      model_(model),
      count_(count),
      seed_(seed),
      root_table_(root_table),
      control_(control),
      base_bytes_(base_bytes),
      speculative_(speculative),
      postings_(postings),
      shards_(shards) {
  OPIM_CHECK_GE(shards, 1u);
  OPIM_CHECK_LE(shards, count);
}

void StagedGeneration::RunShard(unsigned s) {
  // A shard of a discarded batch that has not started yet returns before
  // its sampler allocates per-node scratch.
  if (abort_.load(std::memory_order_relaxed)) return;
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
    shard.finished =
        shard.encoder.Finish(view_.graph().num_nodes(), postings_);
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
    if (!s.finished.sealed) {
      s.finished = s.encoder.Finish(view_.graph().num_nodes(), postings_);
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

}  // namespace opim
