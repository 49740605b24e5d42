// Compressed pooled storage for random reverse-reachable (RR) sets with a
// hybrid inverted node -> RR-set index (paper §3.1).
//
// An RR set is a set of nodes; a collection R of them supports the two
// operations every RIS algorithm needs:
//   * coverage Λ(S): how many RR sets in R intersect a seed set S, and
//   * greedy max-coverage (via the inverted index; see select/).
//
// Storage. Members are kept sorted and group-varint delta-encoded
// (rrset/varint_codec.h) into one append-only byte pool. Each set owns a
// 4-byte slot: empty and singleton sets — the overwhelming majority on
// sparse IC/LT pools — are tagged inline in the slot itself (no pool
// bytes, no decode), larger sets store their byte offset relative to a
// per-4096-set chunk base. Per-set traversal costs are optional
// (RRStoreOptions::retain_set_costs); engine pools that never ask for
// SetCost drop the 8 bytes/set. MemoryUsage() is therefore the
// *compressed* footprint, and it is the quantity RunControl's memory
// budget and the peak_rr_bytes telemetry are checked against.
//
// Inverted index. Each node's posting list (the ascending ids of the RR
// sets containing it) is stored in one of two representations: raw RRId
// postings, or (word index, 64-bit mask) blocks over the RR-id space for
// dense nodes. A block costs 12 bytes against 4 per raw posting, so
// blocks win exactly when 3·blocks <= postings — hub nodes collapse to
// ~θ/64 words that the bitset coverage kernels (rrset/cover_bitset.h)
// AND + popcount whole words at a time. The rule picks the
// representation whenever an extent is written.
//
// Node ids are split into fixed 4096-node partitions. Each partition owns
// two arenas (raw ids; parallel block words and masks) that hold its
// nodes' extents, and each node keeps one 8-byte extent record (arena
// offset, size, representation) next to its 8-byte membership count. The
// index is append-only: an ingest writes only the new sets' postings.
//   * AddSet appends each member's new id in place. An extent that is
//     full moves to its partition's tail at twice its size (free slots
//     hold a sentinel, so capacity is implicit), and a partition arena
//     whose dead entries outnumber its live ones is compacted. O(|set|)
//     amortized.
//   * AddCompressedShards rewrites each partition the shards touch
//     tightly, in one ParallelFor over partitions; untouched partitions
//     are not read. Shards arrive with their postings grouped by
//     partition, so a rewrite gathers only its own partition's new
//     postings (one counting sort over its nodes) and writes each node's
//     old run, then its new run, as two bulk copies. Its cost is the new
//     postings plus one copy of the partition, with nothing per shard
//     proportional to n.
// A posting list's contents never depend on ingest history; only its
// layout (representation, position, slack) does.
//
// Index validity contract: the index and MemberCounts() are current after
// every append, so reads may interleave with appends freely, and
// concurrent index reads (all but CoverageOf, which borrows a scratch
// bitset) need no synchronization. The one exception is a collection
// restored from a snapshot (RestoreFromSnapshotParts), whose index is
// built by EnsureIndex — TwoPoolEngine::Restore does so on its workers —
// or else by the first read or append, which must then not race with
// other readers.

// Out-of-core spill tier. The pool is chunked (4096 sets per chunk);
// each chunk's encoded bytes are an independent byte run, so a sealed
// chunk can be written to an unlinked spill file and its heap buffer
// freed while the run continues. EnableSpill arms the tier;
// SpillColdChunks evicts cold sealed chunks (LRU by last decode) until
// the resident pool fits a target, and any later decode of a spilled
// set faults its chunk back in transparently (evicting other cold
// chunks past the sticky resident target). Fault-in happens inside
// SetBytes, so the trace-mode CELF update — which decodes each newly
// covered set — drives residency. Decode-time fault-in is
// single-threaded-readers-only. The index never decodes the pool except
// to build a restored collection, and that build runs serially once
// spill is armed (selection decodes are serial; parallel generation
// workers never read the collection).

#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "rrset/cover_bitset.h"
#include "rrset/varint_codec.h"
#include "support/status.h"

namespace opim {

class ThreadPool;

/// Slot encoding shared by RRCollection and the shard-side compressors:
/// a set's 4-byte slot either carries the inline tag (empty/singleton
/// sets; low 31 bits hold the member id, or kEmpty's payload) or a pool
/// byte offset / encoded length.
namespace rrslot {
inline constexpr uint32_t kInlineTag = 0x80000000u;
inline constexpr uint32_t kEmpty = 0xFFFFFFFFu;
}  // namespace rrslot

/// Index partitions, shared by RRCollection's inverted index and the
/// shard postings ShardEncoder groups by them: node ids split into
/// 4096-node partitions, and a shard posting stores its node's offset
/// within the partition in 16 bits.
namespace rrpart {
inline constexpr uint32_t kShift = 12;
inline constexpr uint32_t kWidth = 1u << kShift;
static_assert(kWidth <= uint32_t{UINT16_MAX} + 1,
              "a node's offset within its partition must fit 16 bits");
/// Partitions covering node ids [0, num_nodes).
inline uint32_t Count(uint32_t num_nodes) {
  return static_cast<uint32_t>((uint64_t{num_nodes} + kWidth - 1) >> kShift);
}
}  // namespace rrpart

/// One producer shard already in wire format: the concatenation of the
/// sets' group-varint encodings (no tail slack), one record per set (an
/// inline slot value for empty/singleton sets — tag bit set — or the
/// set's encoded byte length, paired with its traversal cost), and the
/// shard-local inverted postings grouped by index partition. Partition
/// p's postings are entries [part_offsets[p], part_offsets[p + 1]) of
/// `post_nodes` (the member's offset within p) and `post_sets` (its
/// *local* set index within this shard), in ascending local set order.
/// Built inside generation workers by ShardEncoder in O(members +
/// partitions), so ingestion is a cheap shard-order append: byte streams
/// are appended wholesale and each touched partition merges its new
/// postings (global id = shard base + local index) after its existing
/// ones, without re-decoding any stored set.
struct CompressedRRShard {
  std::vector<uint8_t> bytes;
  struct SetRec {
    uint32_t rec;    // inline slot (tag bit set) or encoded byte length
    uint64_t cost;   // edges examined sampling this set
  };
  std::vector<SetRec> sets;
  std::vector<uint32_t> part_offsets;  // partitions + 1 once finalized
  std::vector<uint16_t> post_nodes;    // per posting: node within partition
  std::vector<RRId> post_sets;         // per posting: local set index
  uint64_t total_members = 0;

  bool finalized() const { return !part_offsets.empty(); }

  /// Heap footprint (capacity-based) — what RunControl staging-buffer
  /// metering charges for a speculatively sampled shard.
  uint64_t StagingBytes() const {
    return bytes.capacity() * sizeof(uint8_t) +
           sets.capacity() * sizeof(SetRec) +
           part_offsets.capacity() * sizeof(uint32_t) +
           post_nodes.capacity() * sizeof(uint16_t) +
           post_sets.capacity() * sizeof(RRId);
  }
};

/// Streaming per-shard compressor: generation workers feed it one sampled
/// set at a time (sorted + encoded immediately, while the members are
/// cache-hot) and Finish() builds the shard-local postings, yielding a
/// CompressedRRShard ready for RRCollection::AddCompressedShards; a raw
/// member pool is never materialized.
///
/// Exception safety: Add() appends the encoding before the set record, so
/// an allocation failure mid-append can orphan trailing bytes but never a
/// record whose bytes are missing; Finalize/merge walk the records and
/// ignore orphan bytes, keeping a partially filled encoder ingestable
/// (the worker-failure degradation path relies on this).
class ShardEncoder {
 public:
  ShardEncoder() = default;

  /// Sorts `*members` in place (distinct nodes by sampler contract) and
  /// appends its encoding. `cost` is the traversal cost (γ accounting).
  void Add(std::vector<NodeId>* members, uint64_t cost);

  /// Current heap footprint of the staged shard.
  uint64_t StagingBytes() const { return shard_.StagingBytes(); }

  /// Builds the shard-local postings (a counting sort of this shard's
  /// decoded members by partition; checks that they fit the 32-bit
  /// partition offsets) and returns the finished shard. The encoder is
  /// left empty and reusable. `num_nodes` is the graph's node-id bound.
  CompressedRRShard Finish(uint32_t num_nodes);

  /// Finalizes `shard` in place (used when a worker threw before its own
  /// Finish ran: records stay consistent, so postings can be rebuilt by
  /// any thread afterwards). No-op when already finalized.
  static void Finalize(CompressedRRShard* shard, uint32_t num_nodes);

 private:
  CompressedRRShard shard_;
};

/// Storage knobs fixed at construction.
struct RRStoreOptions {
  /// Keep the per-set traversal cost (8 bytes/set) so SetCost() answers.
  /// Engine pools that only need aggregate γ turn this off.
  bool retain_set_costs = true;
};

/// Spill-tier configuration for RRCollection::EnableSpill.
struct RRSpillOptions {
  /// Directory for the (immediately unlinked) spill file.
  std::string dir = "/tmp";
};

/// Cumulative spill-tier activity counters (plain values so tests and
/// reports read them without telemetry).
struct RRSpillStats {
  uint64_t chunks_spilled = 0;  // chunk evictions (heap buffer freed)
  uint64_t chunks_faulted = 0;  // chunk fault-ins from the spill file
};

/// Append-only collection of RR sets over a graph with n nodes.
class RRCollection {
 public:
  /// Creates an empty collection for node ids in [0, num_nodes).
  /// `num_nodes` must be < 2^31 (one slot bit tags inline sets).
  explicit RRCollection(uint32_t num_nodes, RRStoreOptions options = {});

  // Move-only (the spill state owns a file descriptor). Out-of-line:
  // SpillState is incomplete here.
  ~RRCollection();
  RRCollection(RRCollection&&) noexcept;
  RRCollection& operator=(RRCollection&&) noexcept;
  OPIM_DISALLOW_COPY(RRCollection);

  /// Appends one RR set (list of distinct nodes, any order; stored
  /// sorted). `edges_examined` is the traversal cost the sampler paid
  /// (the paper's γ accounting, §3.2). Returns the new set's id. Each
  /// member's posting is appended in place, O(|set|) amortized, so the
  /// index stays current; bulk producers should encode shards with
  /// ShardEncoder and use AddCompressedShards.
  RRId AddSet(std::span<const NodeId> nodes, uint64_t edges_examined);

  /// Appends pre-compressed shards (ShardEncoder output for this
  /// collection's num_nodes), in shard order: byte streams are appended
  /// wholesale, and every index partition the shards touch is rewritten
  /// tightly — each node's old postings, then its new ones from the
  /// shards in shard order, each offset by its shard's id base — in one
  /// parallel pass over partitions when `pool` is given. Existing sets are
  /// never re-decoded. Non-finalized shards (worker threw before Finish)
  /// are finalized here first. Deterministic for any worker count.
  void AddCompressedShards(std::vector<CompressedRRShard> shards,
                           ThreadPool* pool = nullptr);

  /// Number of RR sets θ.
  uint32_t num_sets() const { return num_sets_; }

  /// Number of nodes n of the underlying graph.
  uint32_t num_nodes() const { return num_nodes_; }

  /// Member count of RR set `id`.
  uint32_t SetSize(RRId id) const {
    OPIM_DCHECK_LT(id, num_sets_);
    const uint32_t slot = slot_[id];
    if (slot & kSlotInlineTag) return slot == kEmptySlot ? 0 : 1;
    return DecodedRRMemberCount(SetBytes(id, slot));
  }

  /// Calls `fn(NodeId)` for each member of RR set `id`, ascending.
  template <typename Fn>
  void ForEachMember(RRId id, Fn&& fn) const {
    OPIM_DCHECK_LT(id, num_sets_);
    const uint32_t slot = slot_[id];
    if (slot & kSlotInlineTag) {
      if (slot != kEmptySlot) fn(static_cast<NodeId>(slot & ~kSlotInlineTag));
      return;
    }
    DecodeRRMembersForEach(SetBytes(id, slot), fn);
  }

  /// Members of RR set `id`, decoded into a fresh vector (ascending).
  std::vector<NodeId> DecodeSet(RRId id) const;

  /// Number of RR sets containing `v` — Λ({v}).
  uint32_t CoveringCount(NodeId v) const;

  /// One node's posting list in whichever representation it is stored;
  /// exactly one of {ids} / {words, masks} is non-empty (both empty when
  /// no RR set contains `v`).
  struct CoverPostings {
    std::span<const RRId> ids;
    std::span<const uint32_t> words;
    std::span<const uint64_t> masks;
  };
  CoverPostings Covering(NodeId v) const {
    OPIM_DCHECK_LT(v, num_nodes_);
    if (!index_built_) BuildIndex(nullptr);
    return PostingsOf(v);
  }

  /// Calls `fn(RRId)` for each RR set containing `v`, ascending.
  template <typename Fn>
  void ForEachCovering(NodeId v, Fn&& fn) const {
    ForEachPosting(Covering(v), fn);
  }

  /// Ids of the RR sets containing `v`, decoded into a fresh vector.
  std::vector<RRId> DecodeCovering(NodeId v) const;

  /// Per-node membership counts: MemberCounts()[v] == CoveringCount(v)
  /// for every node, maintained by the same appends that write the
  /// postings, so always current — which is what makes warm-started
  /// selection's initial-gain pass an O(n) copy instead of an O(Σ|R|)
  /// recount. The span is invalidated by any mutation.
  std::span<const uint64_t> MemberCounts() const {
    if (!index_built_) BuildIndex(nullptr);
    return counts_;
  }

  /// Nodes with MemberCounts()[v] > 0, each exactly once (a node is
  /// appended when its count first leaves zero; counts never decrease).
  /// Warm-started selection iterates this instead of all n nodes when
  /// building its CELF heap and gain histogram — at small θ the touched
  /// nodes are a small fraction of n, and the selection output cannot
  /// depend on the iteration order (the CELF comparator is a strict
  /// total order over (gain, node)). AddSet appends nodes in first-touch
  /// order; a batch appends its new nodes in ascending id order, so the
  /// list is the same for any worker count. The span is invalidated by
  /// any mutation.
  std::span<const NodeId> MemberNonzero() const {
    if (!index_built_) BuildIndex(nullptr);
    return member_nonzero_;
  }

  /// Total nodes across all sets, Σ_R |R|. The query-time complexity of the
  /// OPIM bounds is linear in this (paper Table 1).
  uint64_t total_size() const { return total_members_; }

  /// Cumulative traversal cost γ across all sampled sets.
  uint64_t total_edges_examined() const { return total_edges_examined_; }

  /// Heap footprint of this collection in bytes (capacity-based, so it
  /// reflects what the allocator actually holds): the *resident* part of
  /// the compressed member pool (spilled chunks cost nothing), slots +
  /// chunk records, optional per-set costs, the hybrid inverted index
  /// (its arenas include AddSet slack and dead extents until the
  /// partition is compacted or rewritten), the per-node extents and
  /// counts, and the coverage scratch bitset. This is the quantity
  /// RunControl's memory budget is checked against — which is exactly
  /// why spilling cold chunks lets a budgeted run continue.
  uint64_t MemoryUsage() const {
    uint64_t bytes = 0;
    for (const PoolChunk& c : chunks_) {
      bytes += c.bytes.capacity() * sizeof(uint8_t);
    }
    for (const IndexPart& part : parts_) {
      bytes += part.ids.capacity() * sizeof(RRId) +
               part.words.capacity() * sizeof(uint32_t) +
               part.masks.capacity() * sizeof(uint64_t);
    }
    return bytes + chunks_.capacity() * sizeof(PoolChunk) +
           slot_.capacity() * sizeof(uint32_t) +
           set_cost_.capacity() * sizeof(uint64_t) +
           parts_.capacity() * sizeof(IndexPart) +
           extents_.capacity() * sizeof(Extent) +
           counts_.capacity() * sizeof(uint64_t) +
           member_nonzero_.capacity() * sizeof(NodeId) +
           cover_scratch_.MemoryUsage();
  }

  /// Bytes of the compressed member pool, resident or spilled
  /// (inline-tagged sets cost zero).
  uint64_t CompressedMemberBytes() const { return pool_bytes_; }

  // --- Out-of-core spill tier -------------------------------------------

  /// Arms the spill tier: creates (and immediately unlinks) a spill file
  /// in `options.dir`, so the file vanishes with the process no matter
  /// how the run ends. Idempotent; fails with IOError when the directory
  /// refuses a temp file. Decode-time fault-in makes the collection
  /// single-threaded-readers-only afterwards (see file comment).
  Status EnableSpill(const RRSpillOptions& options);

  /// True once EnableSpill succeeded.
  bool spill_enabled() const { return spill_ != nullptr; }

  /// Evicts cold sealed chunks — least recently decoded first — until
  /// the resident pool fits `target_resident_bytes` (or nothing sealed
  /// is left to evict). The target is sticky: later fault-ins evict
  /// other cold chunks past it. First eviction of a chunk writes its
  /// bytes to the spill file (site io.short_write); re-evictions are
  /// free. On write failure the collection is untouched and fully
  /// usable — the caller degrades to the stop-at-budget path. Returns
  /// the number of chunks evicted.
  Result<uint64_t> SpillColdChunks(uint64_t target_resident_bytes);

  /// Encoded bytes currently on the spill file only (not resident).
  uint64_t SpilledBytes() const;

  /// Cumulative spill/fault counters (zeros before EnableSpill).
  RRSpillStats SpillStats() const;

  /// What the member lists would occupy raw, Σ_R |R| * sizeof(NodeId) —
  /// the PR-4-era storage; CompressedMemberBytes()/RawMemberBytes() is
  /// the pool compression ratio reported in telemetry.
  uint64_t RawMemberBytes() const { return total_members_ * sizeof(NodeId); }

  /// Whether SetCost() is answerable (RRStoreOptions::retain_set_costs).
  bool retains_set_costs() const { return retain_costs_; }

  /// Traversal cost ("width" in TIM's terminology: total in-degree of the
  /// set's members) of one RR set. Requires retain_set_costs.
  uint64_t SetCost(RRId id) const {
    OPIM_DCHECK_LT(id, num_sets_);
    OPIM_CHECK_MSG(retain_costs_,
                   "SetCost requires RRStoreOptions::retain_set_costs");
    return set_cost_[id];
  }

  /// Coverage Λ(S): number of RR sets intersecting S, counted by marking
  /// a scratch bitset with each seed's postings. O(θ/64 + Σ_{v∈S} work).
  /// Duplicate nodes in `seeds` are handled (each RR set counted once).
  uint64_t CoverageOf(std::span<const NodeId> seeds) const;

  /// |V|/θ · Λ(S): the unbiased RIS estimate of σ(S) (Lemma 3.1). Returns 0
  /// for an empty collection.
  double EstimateSpread(std::span<const NodeId> seeds) const;

  // --- Snapshot support (rrset/snapshot.h) ------------------------------
  //
  // The snapshot container serializes exactly the canonical storage —
  // per-chunk byte runs, slot words, optional cost column, and the
  // member/γ totals. The inverted index is NOT serialized: its contents
  // are a function of the pool, so restore leaves it unbuilt and an
  // explicit EnsureIndex — or the first read or append — builds it.

  /// Number of pool chunks (ceil(num_sets / 4096); 0 when empty).
  uint32_t num_pool_chunks() const {
    return static_cast<uint32_t>(chunks_.size());
  }

  /// Encoded byte run of chunk `chunk` (no decode slack), faulting it in
  /// from the spill file first when evicted. Empty when every set in the
  /// chunk is stored inline.
  std::span<const uint8_t> ChunkRun(uint32_t chunk) const;

  /// Per-set slot words (inline tag or chunk-relative byte offset).
  std::span<const uint32_t> slots() const { return slot_; }

  /// Per-set cost column; empty unless retains_set_costs().
  std::span<const uint64_t> set_costs() const { return set_cost_; }

  /// Builds the inverted index and member counts of a restored
  /// collection now (decoding in parallel when `pool` is given and spill
  /// is not armed); no-op once built.
  void EnsureIndex(ThreadPool* pool = nullptr) const {
    if (!index_built_) BuildIndex(pool);
  }

  /// Reassembles a collection from snapshot parts. `chunk_runs` are the
  /// slack-free per-chunk byte runs (ChunkRun output); `slots`, `costs`,
  /// and the totals mirror the accessors above. The caller (the snapshot
  /// loader) has already validated structure — offsets, encodings, and
  /// member totals — so violations here are programmer errors
  /// (OPIM_CHECK). The restored collection is byte-identical to the
  /// saved one: further appends, spills, and index reads behave as if
  /// the sets had been added directly. The index is not built here (see
  /// EnsureIndex), so loading a snapshot pays only for its bytes.
  static RRCollection RestoreFromSnapshotParts(
      uint32_t num_nodes, RRStoreOptions options,
      std::vector<std::vector<uint8_t>> chunk_runs,
      std::vector<uint32_t> slots, std::vector<uint64_t> costs,
      uint64_t total_members, uint64_t total_edges_examined);

 private:
  /// Slot tag for sets stored inline (empty or singleton); see rrslot.
  static constexpr uint32_t kSlotInlineTag = rrslot::kInlineTag;
  static constexpr uint32_t kEmptySlot = rrslot::kEmpty;
  /// Sets per pool chunk; a slot offset is relative to its chunk's byte
  /// run so 31 bits suffice no matter how large the pool grows — and a
  /// chunk's run is independently spillable.
  static constexpr uint32_t kChunkShift = 12;
  /// Nodes per index partition.
  static constexpr uint32_t kPartShift = rrpart::kShift;

  /// One node's posting list: `size` entries from `begin` in its
  /// partition's raw arena, or in its block arena when the blocks bit is
  /// set. The capacity is implicit: the free slots after an extent hold
  /// the arena's free sentinel (kFreeId, or a zero mask).
  struct Extent {
    static constexpr uint32_t kBlocksBit = 0x80000000u;
    uint32_t begin = 0;
    uint32_t tagged_size = 0;  // size | kBlocksBit for block extents
    uint32_t size() const { return tagged_size & ~kBlocksBit; }
    bool blocks() const { return (tagged_size & kBlocksBit) != 0; }
  };
  static constexpr RRId kFreeId = ~RRId{0};  // never a set id (< 2^32 - 1)

  /// The arenas of one 4096-node partition. `words`/`masks` run in
  /// parallel. Dead entries are those of extents that moved away; free
  /// slack after a live extent counts as neither live nor dead.
  struct IndexPart {
    std::vector<RRId> ids;
    std::vector<uint32_t> words;
    std::vector<uint64_t> masks;
    uint64_t live_ids = 0;
    uint64_t dead_ids = 0;
    uint64_t live_blocks = 0;
    uint64_t dead_blocks = 0;
  };

  /// One pool chunk: the group-varint byte run of its non-inline sets.
  /// Resident chunks keep the run (plus decode slack) in `bytes` with
  /// `data` caching bytes.data(); spilled chunks have an empty vector,
  /// null `data`, and their run at `spill_offset` in the spill file.
  struct PoolChunk {
    static constexpr uint64_t kNotSpilled = ~uint64_t{0};

    std::vector<uint8_t> bytes;
    uint64_t encoded_bytes = 0;      // run length sans decode slack
    uint64_t spill_offset = kNotSpilled;
    const uint8_t* data = nullptr;   // bytes.data(), null when spilled
    uint64_t lru_stamp = 0;          // last decode (spill enabled only)
  };

  struct SpillState;

  /// Node `v`'s extent as spans (no build check).
  CoverPostings PostingsOf(NodeId v) const {
    const Extent e = extents_[v];
    const IndexPart& part = parts_[v >> kPartShift];
    if (e.blocks()) {
      return {{},
              {part.words.data() + e.begin, e.size()},
              {part.masks.data() + e.begin, e.size()}};
    }
    return {{part.ids.data() + e.begin, e.size()}, {}, {}};
  }

  /// Calls `fn(RRId)` for each id of `p`, ascending.
  template <typename Fn>
  static void ForEachPosting(const CoverPostings& p, Fn&& fn) {
    for (RRId id : p.ids) fn(id);
    for (size_t i = 0; i < p.words.size(); ++i) {
      uint64_t mask = p.masks[i];
      const uint64_t base = uint64_t{p.words[i]} << 6;
      while (mask != 0) {
        fn(static_cast<RRId>(base + std::countr_zero(mask)));
        mask &= mask - 1;
      }
    }
  }

  const uint8_t* SetBytes(RRId id, uint32_t slot) const {
    const PoolChunk& c = chunks_[id >> kChunkShift];
    if (spill_ != nullptr) return SpillAwareChunkData(id >> kChunkShift) + slot;
    return c.data + slot;
  }

  /// Returns chunk `chunk`'s resident run, faulting it in from the spill
  /// file first when evicted, and stamps its LRU recency.
  const uint8_t* SpillAwareChunkData(uint32_t chunk) const;

  /// Reloads an evicted chunk and evicts other cold on-disk chunks past
  /// the sticky resident target. Requires spill enabled.
  void FaultChunk(uint32_t chunk) const;

  /// Sorts (and de-dups) `*nodes` in place, then appends the slot /
  /// encoded bytes for one set (AddSet).
  void AppendEncodedSet(std::vector<NodeId>* nodes);

  /// Appends set `id` to node `v`'s posting list in place, or moves the
  /// full extent to its partition's tail at twice its size.
  void AppendPosting(NodeId v, RRId id);

  /// AppendPosting's slow path: re-chooses the representation for the
  /// grown list, writes it at the arena tail with twice its size as
  /// capacity (extending in place when the extent already ends there),
  /// and compacts the partition once an arena's dead entries outnumber
  /// its live ones.
  void GrowExtent(NodeId v, RRId id);

  /// Appends shard s's postings (global id = shard_bases[s] + local
  /// index) to every node, rewriting each partition they touch;
  /// parallel over partitions when `pool` has > 1 worker. Maintains the
  /// member counts and the nonzero list.
  void AppendShardPostings(std::span<const CompressedRRShard> shards,
                           std::span<const RRId> shard_bases,
                           ThreadPool* pool) const;

  /// Rewrites partition `p`'s arenas tightly: each node's old list, then
  /// its postings from `shards` (re-choosing the representation of every
  /// node that gains some), and records nodes whose count leaves zero in
  /// `*fresh`. The new postings are gathered by one counting sort over
  /// the partition's nodes, and a list that keeps its representation is
  /// written as two bulk copies. With no shards this is the compaction.
  void RewritePartition(uint32_t p, std::span<const CompressedRRShard> shards,
                        std::span<const RRId> shard_bases,
                        std::vector<NodeId>* fresh) const;

  /// One past partition `p`'s last node.
  NodeId PartitionEnd(uint32_t p) const {
    return static_cast<NodeId>(std::min<uint64_t>(
        num_nodes_, (uint64_t{p} + 1) << kPartShift));
  }

  /// Builds the index of a restored collection: decodes the pool into
  /// per-set-range posting shards (one range per worker; serial once
  /// spill is armed) and appends them through AppendShardPostings.
  void BuildIndex(ThreadPool* pool) const;

  /// Appends `len` bytes from `src` to the open (last) chunk's run,
  /// maintaining the per-chunk decode slack and `pool_bytes_`.
  void AppendRunToOpenChunk(const uint8_t* src, uint64_t len);

  uint32_t num_nodes_ = 0;
  uint32_t num_sets_ = 0;
  bool retain_costs_ = true;
  // Chunked compressed pool; each resident chunk's run ends with
  // kVarintDecodeSlackBytes zero bytes. Mutable: decodes fault spilled
  // chunks back in and stamp recency.
  mutable std::vector<PoolChunk> chunks_;
  uint64_t pool_bytes_ = 0;          // Σ encoded_bytes, resident or not
  std::vector<uint32_t> slot_;       // per set: inline tag or chunk offset
  std::vector<uint64_t> set_cost_;   // per-set cost iff retain_costs_
  std::unique_ptr<SpillState> spill_;  // armed by EnableSpill
  std::vector<NodeId> addset_scratch_;  // AddSet sort buffer (reused)
  uint64_t total_members_ = 0;
  uint64_t total_edges_examined_ = 0;
  // Hybrid inverted index (see the file comment). Mutable only so a
  // restored collection can build it on first read.
  mutable std::vector<IndexPart> parts_;  // ceil(num_nodes / 4096)
  mutable std::vector<Extent> extents_;   // per node
  mutable std::vector<uint64_t> counts_;  // per node: postings (MemberCounts)
  // Nodes whose count left zero (see MemberNonzero).
  mutable std::vector<NodeId> member_nonzero_;
  mutable bool index_built_ = true;  // false only after a restore
  // Scratch for CoverageOf (covered-set bitset, reset per call).
  mutable CoverBitset cover_scratch_;
};

}  // namespace opim
