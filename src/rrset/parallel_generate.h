// Parallel RR-set generation with streaming per-shard ingestion.
//
// RR sets are independent samples, so generation parallelizes trivially:
// each worker owns a private sampler and an RNG stream derived from
// (seed, shard), and streams its sets straight into a shard-local
// CompressedRRShard — members sorted and group-varint-compressed while
// they are cache-hot — and, once its sets are sampled, builds the shard's
// inverted-index postings, grouped by index partition, on the same worker
// in O(members + partitions) (a shard bound for an unindexed collection
// skips them). Ingestion after the barrier is then a cheap
// deterministic shard-order append (RRCollection::AddCompressedShards,
// parallel over index partitions, each of which reads only its own slice
// of every shard) instead of a serial sort/compress/rebuild pass. The
// result is deterministic for a fixed (seed, num_threads) pair, and
// single-threaded generation with the same derivation reproduces
// num_threads = 1 exactly.
//
// StagedGeneration exposes the two halves separately: RunShard() calls
// can overlap other work on the same pool, and IngestInto() merges the
// staged shards — or drops them, if the speculation was not needed — at
// a point the caller chooses. TwoPoolEngine stages every batch of its two
// pools this way, both pools' shards in one ShardRun: an eager doubling
// joins them at once, and the pipelined doubling loop runs them
// speculatively during CELF + bounds (see docs/performance.md).
//
// Callers that generate repeatedly (a doubling loop) should construct
// one ThreadPool and pass it to every call: the workers and their stacks
// are reused across generations and the same pool parallelizes the
// inverted-index append of each ingestion batch. Without a pool, a
// temporary pool is created per call (the original behavior).
//
// The samplers' per-sample scratch (epoch arrays, alias tables) is why the
// RRSampler class itself is not thread-safe; this helper is the supported
// way to use multiple cores.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "diffusion/cascade.h"
#include "graph/graph.h"
#include "rrset/rr_collection.h"
#include "support/thread_pool.h"

namespace opim {

class AliasSampler;
class RunControl;
class SamplingView;

/// Samples `count` RR sets under `model` and appends them to `collection`.
/// Deterministic in (seed, num_threads); num_threads = 0 picks the
/// hardware default. Non-empty `root_weights` selects weighted-spread
/// sampling (see IcRRSampler). When `pool` is non-null it supplies the
/// workers (its size overrides `num_threads`, so the RR stream is
/// deterministic in (seed, pool->num_threads())) and no pool is
/// constructed internally.
///
/// Every shard borrows `g`'s memoized SamplingView (built on `pool` by the
/// first call that needs it, then reused by every later call on the same
/// Graph) and one weighted-root alias table built per call.
///
/// Guardrails: when `control` is non-null, every shard polls it once per
/// chunk of kControlPollStride samples (bounding cancellation latency to
/// one chunk of sampling work per worker) with a running footprint
/// estimate — the destination collection's current MemoryUsage() plus the
/// bytes buffered so far across shards. Once the control trips, shards
/// stop at the next whole RR set; everything sampled up to that point is
/// still ingested, so the caller can evaluate bounds on the partial pool.
/// A worker exception (possible only via fault injection or allocation
/// failure) trips control->TripWorkerFailure() and the completed shard
/// buffers are ingested; with control == nullptr it propagates to the
/// caller instead (rethrown from ShardRun::Finish). Early exit makes the
/// number of generated sets timing-dependent — by design, and only after
/// a trip; untripped runs are byte-identical to control == nullptr.
void ParallelGenerate(const Graph& g, DiffusionModel model,
                      RRCollection* collection, uint64_t count,
                      uint64_t seed, unsigned num_threads = 0,
                      std::span<const double> root_weights = {},
                      ThreadPool* pool = nullptr,
                      RunControl* control = nullptr);

/// Samples between RunControl polls in each ParallelGenerate shard: the
/// cancellation-latency bound is this many samples' work per worker.
inline constexpr uint64_t kControlPollStride = 32;

/// Shard count ParallelGenerate uses for `count` sets on `num_threads`
/// workers — the quantity the per-shard RNG stream derivation is keyed
/// on. Exposed so speculative staging reproduces the schedule exactly.
inline unsigned GenerateShardCount(uint64_t count, unsigned num_threads) {
  return static_cast<unsigned>(std::min<uint64_t>(count, num_threads));
}

/// One batch of RR sets being sampled and compressed shard by shard —
/// either synchronously inside ParallelGenerate, or speculatively ahead
/// of the doubling that will consume it, overlapped with selection.
///
/// Construction fixes the sampling schedule (count, seed, shard count):
/// the same derivation ParallelGenerate uses, so a staged batch is
/// byte-identical to a synchronous one. RunShard(s) runs shard s's
/// sample+compress loop on the calling thread; a ShardRun picks the
/// execution context and the join point. Abort() asks shards to stop at
/// the next poll-stride boundary: the discard path when the doubling
/// loop converges before the staged batch is needed.
///
/// Guardrails: shards publish their compressed staging footprint to a
/// shared counter once per kControlPollStride samples and poll `control`
/// with `base_bytes` plus that total, so speculative staging is metered
/// against the same memory budget as synchronous generation. A shard
/// that throws (fault injection, allocation failure) leaves its completed
/// sets ingestable (ShardEncoder's exception-safety contract).
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

  /// Asks running shards to stop at their next poll-stride boundary.
  void Abort() { abort_.store(true, std::memory_order_relaxed); }

  /// Sets sampled; valid once every RunShard has returned.
  uint64_t TotalSets() const;

  /// Ingests the sampled shards into `collection` (shard-order append;
  /// RRCollection::AddCompressedShards, which merges each touched index
  /// partition from the shards' partition-grouped postings), first
  /// finishing any shard whose worker threw, and reports
  /// the batch's generation counters to telemetry. Every RunShard must
  /// have returned — a ShardRun joins all its stages at once, so the
  /// stages of one run are ingested back to back; call at most once.
  /// Returns TotalSets().
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

/// Executes the shards of staged batches: construction submits them to
/// `pool` as one TaskGroup (so they can overlap other work), or, without
/// a pool or with one shard in total, defers them to Finish(), which runs
/// them inline. Finish() joins under ParallelGenerate's worker-failure
/// contract; the group's join runs shards no worker has started on the
/// calling thread. Destruction joins without rethrowing, so the stages
/// must outlive the run.
class ShardRun {
 public:
  ShardRun(std::span<StagedGeneration* const> stages, ThreadPool* pool);

  /// Runs deferred shards, then joins. Call at most once.
  void Finish(RunControl* control);

 private:
  std::vector<StagedGeneration*> stages_;
  std::optional<TaskGroup> group_;  // empty: shards deferred to Finish
};

}  // namespace opim
