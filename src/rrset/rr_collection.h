// Compressed pooled storage for random reverse-reachable (RR) sets with an
// optional inverted node -> RR-set index (paper §3.1).
//
// An RR set is a set of nodes; a collection R of them supports the two
// operations every RIS algorithm needs:
//   * coverage Λ(S): how many RR sets in R intersect a seed set S, and
//   * greedy max-coverage (via the inverted index; see select/).
// Only the nominating pool R1 runs greedy. A judge pool R2 that is only
// asked for Λ2(S*) once per selection can skip the index
// (RRStoreOptions::index = false): its ingest appends the compressed sets
// alone, and one scan of them answers coverage (see "Judge scan" below).
//
// Storage. Members are kept sorted and group-varint delta-encoded
// (rrset/varint_codec.h) into one append-only byte pool. Each set owns a
// 4-byte slot: empty and singleton sets — the overwhelming majority on
// sparse IC/LT pools — are tagged inline in the slot itself (no pool
// bytes, no decode), larger sets store their byte offset relative to a
// per-4096-set chunk base. Traversal costs are kept only as their sum γ
// (total_edges_examined). MemoryUsage() is therefore the *compressed*
// footprint, and it is the quantity RunControl's memory budget and the
// peak_rr_bytes telemetry are checked against.
//
// Inverted index. Each node's posting list is the ascending raw ids of
// the RR sets containing it, and its length is the node's member count
// Λ({v}): 4 bytes per posting, nothing else per entry.
//
// Node ids are split into fixed 4096-node partitions. Each partition owns
// one id arena that holds its nodes' lists, and each node keeps one
// 8-byte extent record (arena offset, size). The index is append-only:
// an ingest writes only the new sets' postings.
//   * AddSet appends each member's new id in place. An extent that is
//     full moves to its partition's tail at twice its size (free slots
//     hold a sentinel, so capacity is implicit), and a partition arena
//     whose dead entries outnumber its live ones is compacted. O(|set|)
//     amortized.
//   * AddCompressedShards merges each partition the shards touch, in
//     one ParallelFor over partitions; untouched partitions are not
//     read. Shards arrive with their postings grouped by partition, so a
//     partition reads only its own slice of each shard. A partition that
//     already holds at least four times the batch's new postings for it
//     takes them in place, in shard order, through AddSet's append; the
//     cost is the new postings. Any other partition is rewritten
//     tightly: one counting sort gathers its new postings by node, and
//     each node's old run, then its new run, are two bulk copies; the
//     cost is the new postings plus one copy of the partition. So small
//     batches onto a grown pool (online advances) append, and batches as
//     large as the pool (θ0 fills, doublings, BuildIndex) rewrite.
//     Neither branch does work per shard proportional to n.
// A posting list's contents never depend on ingest history; only its
// position and slack do.
//
// Index validity contract: an indexed collection's index and member
// counts are current after every append, so reads may interleave with
// appends freely, and concurrent index reads (all but CoverageOf and
// CoverageByPrefix, which borrow a scratch bitset) need no
// synchronization. A collection restored from a snapshot
// (RestoreFromSnapshotParts) is unindexed until BuildIndex indexes it —
// TwoPoolEngine::Restore does so for R1 on its workers.
//
// Member-count bands. Beside the extents, an indexed collection keeps
// one append-only node list per power of two: MemberAtLeast(b) holds the
// nodes whose count has reached 2^b. Counts never fall, so an append
// that lifts a count onto a power of two adds the node to that band,
// once. CELF starts from the highest band with enough candidates and
// widens it a band at a time only when a pick could depend on the rest
// (select/greedy.h), so a selection reads the top of the count
// distribution instead of all n counts.
//
// Judge scan. An unindexed collection (RRStoreOptions::index = false, or
// restored and not yet built) allocates no extents, bands, partitions or
// arenas, and reading its index (Covering, CoveringCount, MemberAtLeast
// and what builds on them) fails a check. CoverageOf and
// CoverageByPrefix answer from one pass over the pool instead, chunk by
// chunk: each set counts at the position of its earliest member in the
// seed list, found by testing members against an n-bit seed bitmap and
// looking a position up only on a hit (so a duplicate seed counts once),
// and the prefix sums of those counts are Λ of every seed prefix.
// O(θ + Σ|R|) per call, against the indexed path's O(θ/64 + Σ_{v∈S}
// postings); it pays off for a pool queried once per doubling, whose
// index would be rewritten every time.

// Out-of-core spill tier. The pool is chunked (4096 sets per chunk);
// each chunk's encoded bytes are an independent byte run, so a sealed
// chunk can be written to an unlinked spill file and its heap buffer
// freed while the run continues. EnableSpill arms the tier;
// SpillColdChunks evicts cold sealed chunks (LRU by last decode) until
// the resident pool fits a target, and any later decode of a spilled
// set faults its chunk back in transparently (evicting other cold
// chunks past the sticky resident target). Fault-in happens inside
// SetBytes, so the trace-mode CELF update — which decodes each newly
// covered set — drives residency; the judge scan faults each spilled
// chunk in once per pass. Decode-time fault-in is
// single-threaded-readers-only. The index never decodes the pool except
// to build a restored collection, and that build runs serially once
// spill is armed (selection decodes and judge scans are serial; parallel
// generation workers never read the collection).

#pragma once

#include <algorithm>
#include <array>
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
/// set's encoded byte length), the shard's summed traversal cost, and —
/// for an indexed destination — the shard-local inverted postings
/// grouped by index partition. Partition
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
  /// Per set: inline slot (tag bit set) or encoded byte length.
  std::vector<uint32_t> recs;
  /// Edges examined sampling the shard's sets (its share of γ).
  uint64_t edges_examined = 0;
  std::vector<uint32_t> part_offsets;  // partitions + 1 once finalized
  std::vector<uint16_t> post_nodes;    // per posting: node within partition
  std::vector<RRId> post_sets;         // per posting: local set index
  uint64_t total_members = 0;
  /// Finalize ran: orphan bytes are stripped and total_members counted.
  bool sealed = false;

  /// The postings are built (an unindexed destination needs none).
  bool finalized() const { return !part_offsets.empty(); }

  /// Heap footprint (capacity-based) — what RunControl staging-buffer
  /// metering charges for a speculatively sampled shard.
  uint64_t StagingBytes() const {
    return bytes.capacity() * sizeof(uint8_t) +
           recs.capacity() * sizeof(uint32_t) +
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
  /// appends its encoding. `cost` is the traversal cost, added to the
  /// shard's γ share.
  void Add(std::vector<NodeId>* members, uint64_t cost);

  /// Current heap footprint of the staged shard.
  uint64_t StagingBytes() const { return shard_.StagingBytes(); }

  /// Seals the shard and, when `postings`, builds its shard-local
  /// postings (a counting sort of this shard's decoded members by
  /// partition; checks that they fit the 32-bit partition offsets), then
  /// returns the finished shard. Shards bound for an unindexed collection
  /// skip the postings. The encoder is left empty and reusable.
  /// `num_nodes` is the graph's node-id bound.
  CompressedRRShard Finish(uint32_t num_nodes, bool postings = true);

  /// Finalizes `shard` in place (used when a worker threw before its own
  /// Finish ran: records stay consistent, so the shard can be sealed and
  /// its postings rebuilt by any thread afterwards). Sealing strips
  /// orphan bytes and counts the members (from the records when no
  /// postings are built). No-op when already sealed, or finalized when
  /// `postings`.
  static void Finalize(CompressedRRShard* shard, uint32_t num_nodes,
                       bool postings = true);

 private:
  CompressedRRShard shard_;
};

/// Storage knobs fixed at construction.
struct RRStoreOptions {
  /// Keep the inverted index and member-count bands. A pool that is never
  /// selected on — the engine's judge pool R2 — turns this off: its
  /// coverage queries scan the pool instead (see "Judge scan" in the
  /// file comment).
  bool index = true;
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
  /// (the paper's γ accounting, §3.2). Returns the new set's id. On an
  /// indexed collection each member's posting is appended in place,
  /// O(|set|) amortized, so the index stays current; bulk producers
  /// should encode shards with ShardEncoder and use AddCompressedShards.
  RRId AddSet(std::span<const NodeId> nodes, uint64_t edges_examined);

  /// Appends pre-compressed shards (ShardEncoder output for this
  /// collection's num_nodes), in shard order: byte streams are appended
  /// wholesale, and on an indexed collection every index partition the
  /// shards touch gets each node's new postings from the shards in shard
  /// order, each offset by its shard's id base — appended in place when
  /// they are few against the partition, else by a tight rewrite (see
  /// the file comment) — in one parallel pass over partitions when
  /// `pool` is given. Existing sets are never re-decoded. Shards whose
  /// worker threw before Finish are finalized here first. Deterministic
  /// for any worker count.
  void AddCompressedShards(std::vector<CompressedRRShard> shards,
                           ThreadPool* pool = nullptr);

  /// Number of RR sets θ.
  uint32_t num_sets() const { return num_sets_; }

  /// Number of nodes n of the underlying graph.
  uint32_t num_nodes() const { return num_nodes_; }

  /// Whether the collection keeps an inverted index (RRStoreOptions::
  /// index, or since BuildIndex).
  bool indexed() const { return indexed_; }

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

  /// Number of RR sets containing `v` — Λ({v}), the length of its
  /// posting list. Every append keeps it current, which is what lets CELF
  /// take its initial gains without an O(Σ|R|) recount.
  uint32_t CoveringCount(NodeId v) const {
    OPIM_DCHECK_LT(v, num_nodes_);
    CheckIndexed();
    return extents_[v].size;
  }

  /// Ids of the RR sets containing `v`, ascending. The span is
  /// invalidated by any mutation.
  std::span<const RRId> Covering(NodeId v) const {
    OPIM_DCHECK_LT(v, num_nodes_);
    CheckIndexed();
    const Extent e = extents_[v];
    return {parts_[v >> kPartShift].ids.data() + e.begin, e.size};
  }

  /// Member-count bands: counts stay below 2^32 (θ < 2^32), so 32
  /// powers of two cover them.
  static constexpr uint32_t kMemberBands = 32;

  /// Nodes with CoveringCount(v) >= 2^b, each exactly once (a node is
  /// appended when its count reaches 2^b; counts never decrease), for
  /// b < kMemberBands. MemberAtLeast(0) is every node some set contains,
  /// and bands past the largest count are empty. CELF builds its heap
  /// from the highest band with enough candidates and admits lower bands
  /// only when a pick could depend on them; the selection output cannot
  /// depend on the order within a band (the CELF comparator is a strict
  /// total order over (gain, node)). AddSet appends nodes in the order
  /// their counts reach 2^b; a batch appends in partition order, and
  /// within a partition by ascending id when it is rewritten, or in the
  /// order its counts reach 2^b when it is merged in place, so every band
  /// is the same for any worker count. The span is invalidated by any
  /// mutation.
  std::span<const NodeId> MemberAtLeast(uint32_t b) const {
    CheckIndexed();
    OPIM_DCHECK_LT(b, kMemberBands);
    return bands_[b];
  }

  /// Total nodes across all sets, Σ_R |R|. The query-time complexity of the
  /// OPIM bounds is linear in this (paper Table 1).
  uint64_t total_size() const { return total_members_; }

  /// Cumulative traversal cost γ across all sampled sets.
  uint64_t total_edges_examined() const { return total_edges_examined_; }

  /// Heap footprint of this collection in bytes (capacity-based, so it
  /// reflects what the allocator actually holds): the *resident* part of
  /// the compressed member pool (spilled chunks cost nothing), slots +
  /// chunk records, the inverted index (its arenas include AddSet slack
  /// and dead extents until the partition is compacted or rewritten),
  /// the per-node extents, the member-count bands, and the coverage
  /// scratch bitset. This is the quantity
  /// RunControl's memory budget is checked against — which is exactly
  /// why spilling cold chunks lets a budgeted run continue.
  uint64_t MemoryUsage() const {
    uint64_t bytes = 0;
    for (const PoolChunk& c : chunks_) {
      bytes += c.bytes.capacity() * sizeof(uint8_t);
    }
    for (const IndexPart& part : parts_) {
      bytes += part.ids.capacity() * sizeof(RRId);
    }
    return bytes + chunks_.capacity() * sizeof(PoolChunk) +
           slot_.capacity() * sizeof(uint32_t) +
           parts_.capacity() * sizeof(IndexPart) +
           extents_.capacity() * sizeof(Extent) + BandBytes() +
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

  /// Coverage Λ(S): number of RR sets intersecting S, counted by marking
  /// a scratch bitset with each seed's postings (O(θ/64 + Σ_{v∈S} work)),
  /// or by the judge scan on an unindexed collection. Duplicate nodes in
  /// `seeds` are handled (each RR set counted once).
  uint64_t CoverageOf(std::span<const NodeId> seeds) const;

  /// Coverage of every prefix of `seeds`: entry i is Λ(seeds[0, i)), so
  /// entry 0 is 0 and the last entry is CoverageOf(seeds). One postings
  /// walk over the seeds on an indexed collection, one judge scan
  /// otherwise.
  std::vector<uint64_t> CoverageByPrefix(std::span<const NodeId> seeds) const;

  /// |V|/θ · Λ(S): the unbiased RIS estimate of σ(S) (Lemma 3.1). Returns 0
  /// for an empty collection.
  double EstimateSpread(std::span<const NodeId> seeds) const;

  // --- Snapshot support (rrset/snapshot.h) ------------------------------
  //
  // The snapshot container serializes exactly the canonical storage —
  // per-chunk byte runs, slot words, and the member/γ totals. The
  // inverted index is NOT serialized: its contents are a function of
  // the pool, so a restored collection is unindexed and BuildIndex
  // indexes it.

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

  /// Indexes an unindexed collection (checked): decodes the pool into
  /// per-set-range posting shards — one range per worker of `pool`,
  /// serial once spill is armed — and appends them as one batch, so the
  /// index and bands equal those of a collection that was indexed all
  /// along. Later appends keep them current.
  void BuildIndex(ThreadPool* pool = nullptr);

  /// Reassembles a collection from snapshot parts. `chunk_runs` are the
  /// slack-free per-chunk byte runs (ChunkRun output); `slots` and the
  /// totals mirror the accessors above. The caller (the snapshot
  /// loader) has already validated structure — offsets, encodings, and
  /// member totals — so violations here are programmer errors
  /// (OPIM_CHECK). The restored collection is byte-identical to the
  /// saved one: further appends, spills, and index reads behave as if
  /// the sets had been added directly, except that it is unindexed:
  /// BuildIndex indexes it, so loading a snapshot pays only for its
  /// bytes.
  static RRCollection RestoreFromSnapshotParts(
      uint32_t num_nodes, std::vector<std::vector<uint8_t>> chunk_runs,
      std::vector<uint32_t> slots, uint64_t total_members,
      uint64_t total_edges_examined);

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

  /// One node's posting list: `size` ids from `begin` in its
  /// partition's arena. The capacity is implicit: the free slots after an
  /// extent hold kFreeId.
  struct Extent {
    uint32_t begin = 0;
    uint32_t size = 0;
  };
  static constexpr RRId kFreeId = ~RRId{0};  // never a set id (< 2^32 - 1)

  /// A node's count reached 2^band in a batch (see MemberAtLeast).
  struct BandEvent {
    uint32_t band;
    NodeId node;
  };

  /// The id arena of one 4096-node partition. `live` counts the ids of
  /// its extents, `dead` those of extents that moved away; free slack
  /// after a live extent counts as neither.
  struct IndexPart {
    std::vector<RRId> ids;
    uint64_t live = 0;
    uint64_t dead = 0;
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
  /// full extent to its partition's tail at twice its size. Returns the
  /// band b whose 2^b the count just reached (see MemberAtLeast), or
  /// kMemberBands when it reached no power of two; the caller records
  /// the node there. Touches only `v`'s partition.
  uint32_t AppendPosting(NodeId v, RRId id);

  /// AppendPosting's slow path: writes the grown list at the arena tail
  /// with twice its size as capacity (extending in place when the extent
  /// already ends there), and compacts the partition once its dead
  /// entries outnumber its live ones.
  void GrowExtent(NodeId v, RRId id);

  /// Appends shard s's postings (global id = shard_bases[s] + local
  /// index) to every node: in place (AppendPosting) in a partition that
  /// holds at least kInPlaceMergeFactor times its new postings, by
  /// RewritePartition in any other partition they touch; parallel over
  /// partitions when `pool` has > 1 worker. Maintains the bands.
  void AppendShardPostings(std::span<const CompressedRRShard> shards,
                           std::span<const RRId> shard_bases,
                           ThreadPool* pool);

  /// Rewrites partition `p`'s arena tightly: each node's old list, then
  /// its postings from `shards`, as two bulk copies, and records in
  /// `*events` every power of two a node's count reaches, in node order.
  /// The new postings are gathered by one counting sort over the
  /// partition's nodes. With no shards this is the compaction.
  void RewritePartition(uint32_t p, std::span<const CompressedRRShard> shards,
                        std::span<const RRId> shard_bases,
                        std::vector<BandEvent>* events);

  /// One past partition `p`'s last node.
  NodeId PartitionEnd(uint32_t p) const {
    return static_cast<NodeId>(std::min<uint64_t>(
        num_nodes_, (uint64_t{p} + 1) << kPartShift));
  }

  /// Sizes the empty index: partitions and empty extents.
  void AllocateIndex();

  /// Heap bytes of the member-count bands.
  uint64_t BandBytes() const {
    uint64_t bytes = 0;
    for (const std::vector<NodeId>& band : bands_) {
      bytes += band.capacity() * sizeof(NodeId);
    }
    return bytes;
  }

  /// The check every index read makes.
  void CheckIndexed() const {
    OPIM_CHECK_MSG(indexed_,
                   "index read on an RR collection that keeps no index "
                   "(RRStoreOptions::index)");
  }

  /// Marks each seed's postings in the scratch bitset, in seed order;
  /// with `prefix`, prefix[i] is the coverage after seeds[0..i]. Returns
  /// the coverage of all seeds. Indexed collections only.
  uint64_t MarkCovered(std::span<const NodeId> seeds, uint64_t* prefix) const;

  /// The judge scan (see the file comment): adds one to first[i] for
  /// each set whose earliest member in `seeds` is seeds[i].
  void ScanFirstCovered(std::span<const NodeId> seeds, uint64_t* first) const;

  /// Appends `len` bytes from `src` to the open (last) chunk's run,
  /// maintaining the per-chunk decode slack and `pool_bytes_`.
  void AppendRunToOpenChunk(const uint8_t* src, uint64_t len);

  uint32_t num_nodes_ = 0;
  uint32_t num_sets_ = 0;
  bool indexed_ = true;
  // Chunked compressed pool; each resident chunk's run ends with
  // kVarintDecodeSlackBytes zero bytes. Mutable: decodes fault spilled
  // chunks back in and stamp recency.
  mutable std::vector<PoolChunk> chunks_;
  uint64_t pool_bytes_ = 0;          // Σ encoded_bytes, resident or not
  std::vector<uint32_t> slot_;       // per set: inline tag or chunk offset
  std::unique_ptr<SpillState> spill_;  // armed by EnableSpill
  std::vector<NodeId> addset_scratch_;  // AddSet sort buffer (reused)
  uint64_t total_members_ = 0;
  uint64_t total_edges_examined_ = 0;
  // Inverted index (see the file comment); empty when unindexed.
  std::vector<IndexPart> parts_;  // ceil(num_nodes / 4096)
  std::vector<Extent> extents_;   // per node
  // Nodes whose count reached each power of two (see MemberAtLeast).
  std::array<std::vector<NodeId>, kMemberBands> bands_;
  // Scratch for indexed CoverageOf / CoverageByPrefix (covered-set
  // bitset, reset per call).
  mutable CoverBitset cover_scratch_;
};

}  // namespace opim
