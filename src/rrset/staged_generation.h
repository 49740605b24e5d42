// Staged RR-set generation: one batch sampled shard by shard, with
// streaming per-shard ingestion.
//
// RR sets are independent samples, so generation parallelizes trivially:
// each shard owns a private sampler and an RNG stream derived from
// (seed, shard), and streams its sets straight into a shard-local
// CompressedRRShard — members sorted and group-varint-compressed while
// they are cache-hot — and, once its sets are sampled, builds the shard's
// inverted-index postings, grouped by index partition, on the same
// thread in O(members + partitions) (a shard bound for an unindexed
// collection skips them). Ingestion after the join is then a cheap
// deterministic shard-order append (RRCollection::AddCompressedShards,
// parallel over index partitions, each of which reads only its own slice
// of every shard) instead of a serial sort/compress/rebuild pass. The
// result is deterministic for a fixed (seed, shard count).
//
// StagedGeneration exposes the two halves separately: RunShard() calls
// can overlap other work on the same pool, and IngestInto() merges the
// staged shards — or the batch is dropped, if the speculation was not
// needed — at a point the caller chooses. TwoPoolEngine stages every
// batch of its two pools this way, both pools' shards in one TaskGroup
// on its pool: an eager batch joins them at once, and the pipelined
// doubling loop runs them speculatively during CELF + bounds (see
// docs/performance.md).
//
// The samplers' per-sample scratch (epoch arrays, alias tables) is why the
// RRSampler class itself is not thread-safe; one sampler per shard is how
// the engine uses several cores.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "diffusion/cascade.h"
#include "rrset/rr_collection.h"

namespace opim {

class AliasSampler;
class RunControl;
class SamplingView;
class ThreadPool;

/// Samples between RunControl polls in each staged shard: the
/// cancellation-latency bound is this many samples' work per worker.
inline constexpr uint64_t kControlPollStride = 32;

/// Shard count of a batch of `count` sets on `num_threads` threads — the
/// quantity the per-shard RNG stream derivation is keyed on, so a batch
/// is deterministic in (seed, num_threads).
inline unsigned GenerateShardCount(uint64_t count, unsigned num_threads) {
  return static_cast<unsigned>(std::min<uint64_t>(count, num_threads));
}

/// One batch of RR sets being sampled and compressed shard by shard —
/// joined at once for an eager batch, or speculatively ahead of the
/// doubling that will consume it, overlapped with selection.
///
/// Construction fixes the sampling schedule (count, seed, shard count):
/// shard s samples sets [count·s/shards, count·(s+1)/shards) from RNG
/// stream (seed, 0x70617267 + s), so a batch does not depend on when or
/// where its shards run. RunShard(s) runs shard s's sample+compress loop
/// on the calling thread; the caller picks the execution context and the
/// join point. Abort() asks shards to stop at the next poll-stride
/// boundary, and shards that have not started to skip their work: the
/// discard path when the doubling loop converges before the staged batch
/// is needed.
///
/// Guardrails: shards publish their compressed staging footprint to a
/// shared counter once per kControlPollStride samples and poll `control`
/// with `base_bytes` plus that total, so speculative staging is metered
/// against the same memory budget as an eager batch. Once the control
/// trips, shards stop at the next whole RR set, and everything sampled
/// up to that point can still be ingested. A shard that throws (fault
/// injection, allocation failure) leaves its completed sets ingestable
/// (ShardEncoder's exception-safety contract).
class StagedGeneration {
 public:
  /// Fixes the schedule; nothing is sampled until RunShard. `view` must
  /// have the part for `model` built and, like `root_table` (nullptr for
  /// uniform roots) and `control`, must outlive the staging run.
  /// `speculative` selects the rrset.speculation_throw fault site and the
  /// speculative trace span names. `postings` is whether the destination
  /// collection is indexed (RRCollection::indexed).
  StagedGeneration(const SamplingView& view, DiffusionModel model,
                   uint64_t count, uint64_t seed, unsigned shards,
                   const AliasSampler* root_table, RunControl* control,
                   uint64_t base_bytes, bool speculative, bool postings);

  /// Samples shard `s`, then seals it and builds its postings (when the
  /// destination is indexed) unless the batch was aborted (thread-safe
  /// for distinct `s`; call once per `s`).
  void RunShard(unsigned s);

  unsigned shards() const { return static_cast<unsigned>(shards_.size()); }

  /// Asks running shards to stop at their next poll-stride boundary, and
  /// shards not yet started to return at once.
  void Abort() { abort_.store(true, std::memory_order_relaxed); }

  /// Sets sampled; valid once every RunShard has returned.
  uint64_t TotalSets() const;

  /// Ingests the sampled shards into `collection` (shard-order append;
  /// RRCollection::AddCompressedShards, which merges each touched index
  /// partition from the shards' partition-grouped postings), first
  /// finishing any shard whose worker threw, and reports the batch's
  /// generation counters to telemetry. Every RunShard must have
  /// returned; call at most once. Returns TotalSets().
  uint64_t IngestInto(RRCollection* collection, ThreadPool* pool);

 private:
  const SamplingView& view_;
  DiffusionModel model_;
  uint64_t count_;
  uint64_t seed_;
  const AliasSampler* root_table_;
  RunControl* control_;
  uint64_t base_bytes_;
  bool speculative_;
  bool postings_;
  std::atomic<bool> abort_{false};
  std::atomic<uint64_t> published_bytes_{0};
  struct alignas(64) Shard {
    ShardEncoder encoder;
    CompressedRRShard finished;  // built by RunShard unless it threw
    uint64_t sets = 0;
    uint64_t nodes = 0;
    uint64_t edges = 0;
    uint64_t alias = 0;
  };
  std::vector<Shard> shards_;
};

}  // namespace opim
