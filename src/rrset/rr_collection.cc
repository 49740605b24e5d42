#include "rrset/rr_collection.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "obs/telemetry.h"
#include "obs/trace.h"
#include "support/fault_inject.h"
#include "support/io_util.h"
#include "support/thread_pool.h"

namespace opim {

namespace {

/// Below this many total members a serial rebuild beats the fan-out
/// overhead.
constexpr uint64_t kParallelRebuildMinNodes = 1u << 16;

/// A block representation entry costs 12 bytes (uint32 word + uint64
/// mask) against 4 per raw posting: blocks win iff 3·blocks <= postings.
constexpr uint32_t kBlockCostRatio = 3;

}  // namespace

void ShardEncoder::Add(std::vector<NodeId>* members, uint64_t cost) {
  std::sort(members->begin(), members->end());
#if OPIM_DEBUG_CHECKS
  for (size_t i = 1; i < members->size(); ++i) {
    OPIM_DCHECK_LT((*members)[i - 1], (*members)[i]);  // distinct by contract
  }
#endif
  uint32_t rec;
  if (members->empty()) {
    rec = rrslot::kEmpty;
  } else if (members->size() == 1) {
    rec = rrslot::kInlineTag | (*members)[0];
  } else {
    // Bytes precede the record: a failed record push can only orphan
    // trailing bytes, which Finalize strips (see header).
    const size_t len = EncodeRRMembers(*members, &shard_.bytes);
    OPIM_CHECK_LT(len, rrslot::kInlineTag);
    rec = static_cast<uint32_t>(len);
  }
  shard_.sets.push_back({rec, cost});
}

CompressedRRShard ShardEncoder::Finish(uint32_t num_nodes) {
  Finalize(&shard_, num_nodes);
  CompressedRRShard out = std::move(shard_);
  shard_ = {};
  return out;
}

void ShardEncoder::Finalize(CompressedRRShard* shard, uint32_t num_nodes) {
  if (shard->finalized()) return;
  // Drop orphan trailing bytes (a worker that threw mid-Add may have
  // appended an encoding without its record), then add temporary decode
  // slack: the counting-sort passes below read via the fast decoder.
  uint64_t used = 0;
  for (const CompressedRRShard::SetRec& s : shard->sets) {
    if (!(s.rec & rrslot::kInlineTag)) used += s.rec;
  }
  shard->bytes.resize(used);
  shard->bytes.resize(used + kVarintDecodeSlackBytes, 0);

  const uint32_t sets = static_cast<uint32_t>(shard->sets.size());
  auto for_each_member = [&](auto&& fn) {
    const uint8_t* p = shard->bytes.data();
    for (uint32_t local = 0; local < sets; ++local) {
      const uint32_t rec = shard->sets[local].rec;
      if (rec & rrslot::kInlineTag) {
        if (rec != rrslot::kEmpty) {
          fn(static_cast<RRId>(local),
             static_cast<NodeId>(rec & ~rrslot::kInlineTag));
        }
      } else {
        DecodeRRMembersForEach(
            p, [&](NodeId v) { fn(static_cast<RRId>(local), v); });
        p += rec;
      }
    }
  };
  shard->post_offsets.assign(num_nodes + 1, 0);
  uint64_t members = 0;
  for_each_member([&](RRId, NodeId v) {
    OPIM_DCHECK_LT(v, num_nodes);
    ++shard->post_offsets[v + 1];
    ++members;
  });
  for (uint32_t v = 0; v < num_nodes; ++v) {
    shard->post_offsets[v + 1] += shard->post_offsets[v];
  }
  shard->postings.resize(members);
  std::vector<uint32_t> cursor(shard->post_offsets.begin(),
                               shard->post_offsets.end() - 1);
  for_each_member(
      [&](RRId local, NodeId v) { shard->postings[cursor[v]++] = local; });
  shard->total_members = members;
  shard->bytes.resize(used);  // strip the temporary slack again
}

RRCollection::RRCollection(uint32_t num_nodes, RRStoreOptions options)
    : num_nodes_(num_nodes),
      retain_costs_(options.retain_set_costs),
      raw_offsets_(num_nodes + 1, 0),
      block_offsets_(num_nodes + 1, 0) {
  // One slot bit tags inline sets, so ids must fit in 31 bits.
  OPIM_CHECK_LT(num_nodes, kSlotInlineTag);
}

RRCollection::~RRCollection() = default;
RRCollection::RRCollection(RRCollection&&) noexcept = default;
RRCollection& RRCollection::operator=(RRCollection&&) noexcept = default;

void RRCollection::AppendRunToOpenChunk(const uint8_t* src, uint64_t len) {
  PoolChunk& c = chunks_.back();
  c.bytes.resize(c.encoded_bytes);  // strip the decode slack
  c.bytes.insert(c.bytes.end(), src, src + len);
  c.encoded_bytes += len;
  c.bytes.resize(c.encoded_bytes + kVarintDecodeSlackBytes, 0);
  c.data = c.bytes.data();
  pool_bytes_ += len;
}

void RRCollection::AppendEncodedSet(std::vector<NodeId>* nodes) {
  std::sort(nodes->begin(), nodes->end());
  nodes->erase(std::unique(nodes->begin(), nodes->end()), nodes->end());
  const RRId id = num_sets_;
  if ((id & ((1u << kChunkShift) - 1)) == 0) chunks_.emplace_back();
  PoolChunk& c = chunks_.back();
  if (nodes->empty()) {
    slot_.push_back(kEmptySlot);
  } else if (nodes->size() == 1) {
    slot_.push_back(kSlotInlineTag | (*nodes)[0]);
  } else {
    OPIM_CHECK_LT(c.encoded_bytes, kSlotInlineTag);
    slot_.push_back(static_cast<uint32_t>(c.encoded_bytes));
    c.bytes.resize(c.encoded_bytes);  // strip the decode slack
    const uint64_t len = EncodeRRMembers(*nodes, &c.bytes);
    c.encoded_bytes += len;
    c.bytes.resize(c.encoded_bytes + kVarintDecodeSlackBytes, 0);
    c.data = c.bytes.data();
    pool_bytes_ += len;
  }
  ++num_sets_;
  total_members_ += nodes->size();
}

RRId RRCollection::AddSet(std::span<const NodeId> nodes,
                          uint64_t edges_examined) {
  const RRId id = num_sets_;
  for (NodeId v : nodes) {
    OPIM_CHECK_LT(v, num_nodes_);
  }
  addset_scratch_.assign(nodes.begin(), nodes.end());
  AppendEncodedSet(&addset_scratch_);
  if (retain_costs_) set_cost_.push_back(edges_examined);
  total_edges_examined_ += edges_examined;
  if (!nodes.empty()) index_dirty_ = true;
  return id;
}

void RRCollection::AddCompressedShards(std::vector<CompressedRRShard> shards,
                                       ThreadPool* pool) {
  OPIM_TR_SPAN1("ingest", "rrset", "shards", shards.size());
  OPIM_TM_SCOPED_TIMER("opim.rrset.ingest_us");
  uint64_t add_sets = 0;
  for (CompressedRRShard& shard : shards) {
    ShardEncoder::Finalize(&shard, num_nodes_);  // no-op on Finish output
    add_sets += shard.sets.size();
  }
  if (add_sets == 0) return;

  // When the per-node membership counts are already materialized and
  // current, each shard's posting counts update them in O(num_nodes)
  // below — the whole point of the compressed-shard path for incremental
  // selection. Captured before any append so a stale vector (serial
  // AddSet interleaved) keeps its lazy-decode watermark instead.
  const bool counts_live =
      member_counts_.size() == num_nodes_ && counts_accounted_ == num_sets_;

  // Serial assembly: each shard's byte stream is appended in contiguous
  // runs split only at chunk boundaries (sets are consecutive within a
  // shard), slots/costs follow the record walk in shard-major,
  // sample-minor append order.
  std::vector<RRId> shard_bases;
  shard_bases.reserve(shards.size());
  slot_.reserve(slot_.size() + add_sets);
  if (retain_costs_) set_cost_.reserve(set_cost_.size() + add_sets);
  for (const CompressedRRShard& shard : shards) {
    shard_bases.push_back(num_sets_);
    const uint8_t* src = shard.bytes.data();
    uint64_t src_pos = 0;  // bytes of this shard already flushed
    uint64_t run_len = 0;  // bytes pending for the open chunk
    for (const auto& [rec, cost] : shard.sets) {
      const RRId id = num_sets_;
      if ((id & ((1u << kChunkShift) - 1)) == 0) {
        if (run_len > 0) {
          AppendRunToOpenChunk(src + src_pos, run_len);
          src_pos += run_len;
          run_len = 0;
        }
        chunks_.emplace_back();
      }
      if (rec & kSlotInlineTag) {
        slot_.push_back(rec);
      } else {
        const uint64_t rel = chunks_.back().encoded_bytes + run_len;
        OPIM_CHECK_LT(rel, kSlotInlineTag);
        slot_.push_back(static_cast<uint32_t>(rel));
        run_len += rec;
      }
      ++num_sets_;
      if (retain_costs_) set_cost_.push_back(cost);
      total_edges_examined_ += cost;
    }
    if (run_len > 0) {
      AppendRunToOpenChunk(src + src_pos, run_len);
      src_pos += run_len;
    }
    OPIM_CHECK_EQ(src_pos, shard.bytes.size());
    total_members_ += shard.total_members;
  }
  if (counts_live) {
    for (const CompressedRRShard& shard : shards) {
      OPIM_DCHECK_EQ(shard.post_offsets.size(), size_t{num_nodes_} + 1);
      for (uint32_t v = 0; v < num_nodes_; ++v) {
        const uint64_t add =
            shard.post_offsets[v + 1] - shard.post_offsets[v];
        if (add != 0 && member_counts_[v] == 0) member_nonzero_.push_back(v);
        member_counts_[v] += add;
      }
    }
    counts_accounted_ = num_sets_;
  }
  OPIM_TM_GAUGE_SET("opim.rrset.compressed_bytes", pool_bytes_);
  if (index_dirty_) {
    RebuildIndex(pool);  // single-set appends left no merge base
  } else {
    MergeIndex(shards, shard_bases, pool);
  }
}

void RRCollection::MergeIndex(std::span<const CompressedRRShard> shards,
                              std::span<const RRId> shard_bases,
                              ThreadPool* pool) const {
  OPIM_TR_SPAN1("index_merge", "rrset", "sets", num_sets_);
  OPIM_TM_SCOPED_TIMER("opim.rrset.index_merge_us");
  OPIM_TM_COUNTER_ADD("opim.rrset.index_merges", 1);
  index_dirty_ = false;
  const uint32_t n = num_nodes_;
  OPIM_CHECK_LE(total_members_, 0xFFFFFFFFull);

  // Every phase runs over the same fixed node ranges; per-node output
  // never depends on the split, so the result is identical for any worker
  // count. More ranges than workers keeps the merge balanced when posting
  // mass is skewed toward hubs.
  const unsigned workers = pool != nullptr ? pool->num_threads() : 1;
  const uint32_t ranges =
      workers > 1 && total_members_ >= kParallelRebuildMinNodes
          ? std::min<uint32_t>(n, workers * 4)
          : 1;
  auto range_lo = [n, ranges](uint32_t r) {
    return static_cast<uint32_t>(uint64_t{n} * r / ranges);
  };
  auto for_ranges = [&](auto&& fn) {
    if (ranges == 1) {
      fn(0);
    } else {
      pool->ParallelFor(ranges,
                        [&](uint64_t r) { fn(static_cast<uint32_t>(r)); });
    }
  };

  // Phase 1: merged per-node posting counts, then a serial prefix sum.
  std::vector<uint32_t> offsets(n + 1, 0);
  for_ranges([&](uint32_t r) {
    for (uint32_t v = range_lo(r); v < range_lo(r + 1); ++v) {
      uint32_t count = raw_offsets_[v + 1] - raw_offsets_[v];
      for (uint32_t b = block_offsets_[v]; b < block_offsets_[v + 1]; ++b) {
        count += static_cast<uint32_t>(std::popcount(block_masks_[b]));
      }
      for (const CompressedRRShard& shard : shards) {
        count += shard.post_offsets[v + 1] - shard.post_offsets[v];
      }
      offsets[v + 1] = count;
    }
  });
  for (uint32_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  OPIM_CHECK_EQ(offsets[n], static_cast<uint32_t>(total_members_));

  // Phase 2: fill the merged raw postings. Old ids first (ascending out
  // of either representation), then shard postings in shard order —
  // local indices ascend per node and bases increase, so every node's
  // merged list comes out ascending without any sort.
  std::vector<RRId> merged(offsets[n]);
  for_ranges([&](uint32_t r) {
    for (uint32_t v = range_lo(r); v < range_lo(r + 1); ++v) {
      uint32_t w = offsets[v];
      for (uint32_t i = raw_offsets_[v]; i < raw_offsets_[v + 1]; ++i) {
        merged[w++] = cover_ids_[i];
      }
      for (uint32_t b = block_offsets_[v]; b < block_offsets_[v + 1]; ++b) {
        uint64_t mask = block_masks_[b];
        const uint64_t base = uint64_t{block_words_[b]} << 6;
        while (mask != 0) {
          merged[w++] = static_cast<RRId>(base + std::countr_zero(mask));
          mask &= mask - 1;
        }
      }
      for (size_t s = 0; s < shards.size(); ++s) {
        const CompressedRRShard& shard = shards[s];
        for (uint32_t i = shard.post_offsets[v];
             i < shard.post_offsets[v + 1]; ++i) {
          merged[w++] = shard_bases[s] + shard.postings[i];
        }
      }
      OPIM_DCHECK_EQ(w, offsets[v + 1]);
    }
  });

  // Phase 3: per-node representation selection + compaction, two passes
  // over the same ranges: per-range output sizes, a serial prefix fixing
  // each range's write base, then emission. The choice rule matches
  // RebuildIndex exactly (blocks win iff 3·blocks <= postings).
  auto node_blocks = [&](uint32_t lo, uint32_t hi) {
    uint32_t blocks = 1;
    for (uint32_t i = lo + 1; i < hi; ++i) {
      blocks += (merged[i] >> 6) != (merged[i - 1] >> 6);
    }
    return blocks;
  };
  std::vector<uint64_t> range_raw(ranges + 1, 0);
  std::vector<uint64_t> range_blocks(ranges + 1, 0);
  for_ranges([&](uint32_t r) {
    uint64_t raw = 0;
    uint64_t blk = 0;
    for (uint32_t v = range_lo(r); v < range_lo(r + 1); ++v) {
      const uint32_t p = offsets[v + 1] - offsets[v];
      if (p == 0) continue;
      const uint32_t blocks = node_blocks(offsets[v], offsets[v + 1]);
      if (kBlockCostRatio * blocks <= p) {
        blk += blocks;
      } else {
        raw += p;
      }
    }
    range_raw[r + 1] = raw;
    range_blocks[r + 1] = blk;
  });
  for (uint32_t r = 0; r < ranges; ++r) {
    range_raw[r + 1] += range_raw[r];
    range_blocks[r + 1] += range_blocks[r];
  }
  cover_ids_.resize(range_raw[ranges]);
  block_words_.resize(range_blocks[ranges]);
  block_masks_.resize(range_blocks[ranges]);
  for_ranges([&](uint32_t r) {
    uint32_t w_raw = static_cast<uint32_t>(range_raw[r]);
    uint32_t w_blk = static_cast<uint32_t>(range_blocks[r]);
    for (uint32_t v = range_lo(r); v < range_lo(r + 1); ++v) {
      raw_offsets_[v] = w_raw;
      block_offsets_[v] = w_blk;
      const uint32_t lo = offsets[v];
      const uint32_t hi = offsets[v + 1];
      const uint32_t p = hi - lo;
      if (p == 0) continue;
      const uint32_t blocks = node_blocks(lo, hi);
      if (kBlockCostRatio * blocks <= p) {
        uint32_t word = merged[lo] >> 6;
        uint64_t mask = 0;
        for (uint32_t i = lo; i < hi; ++i) {
          const uint32_t w = merged[i] >> 6;
          if (w != word) {
            block_words_[w_blk] = word;
            block_masks_[w_blk] = mask;
            ++w_blk;
            word = w;
            mask = 0;
          }
          mask |= uint64_t{1} << (merged[i] & 63);
        }
        block_words_[w_blk] = word;
        block_masks_[w_blk] = mask;
        ++w_blk;
      } else {
        for (uint32_t i = lo; i < hi; ++i) cover_ids_[w_raw++] = merged[i];
      }
    }
  });
  raw_offsets_[n] = static_cast<uint32_t>(range_raw[ranges]);
  block_offsets_[n] = static_cast<uint32_t>(range_blocks[ranges]);
  cover_ids_.shrink_to_fit();
  block_words_.shrink_to_fit();
  block_masks_.shrink_to_fit();
}

void RRCollection::RebuildIndex(ThreadPool* pool) const {
  OPIM_TR_SPAN1("index_rebuild", "rrset", "sets", num_sets_);
  OPIM_TM_SCOPED_TIMER("opim.rrset.index_rebuild_us");
  OPIM_TM_COUNTER_ADD("opim.rrset.index_rebuilds", 1);
  index_dirty_ = false;
  const uint32_t n = num_nodes_;
  const uint64_t sets = num_sets_;
  // Posting positions are uint32 (a raw posting is 4 bytes; 2^32 of them
  // is a 16 GiB index, far past any budgeted run).
  OPIM_CHECK_LE(total_members_, 0xFFFFFFFFull);
  cover_ids_.resize(total_members_);

  // Stage 1: counting-sort the decoded sets into full raw postings
  // (ascending RR ids per node), exactly the PR-2 rebuild but reading
  // members through the codec. With the spill tier armed, decodes can
  // fault chunks in, so the rebuild must stay on one thread.
  std::vector<uint32_t> full_offsets(n + 1, 0);
  const unsigned workers =
      pool != nullptr && spill_ == nullptr ? pool->num_threads() : 1;
  if (workers <= 1 || total_members_ < kParallelRebuildMinNodes) {
    // Serial two-pass counting sort: count into full_offsets[v + 1],
    // prefix-sum, then place ids in ascending set order per node.
    for (uint64_t id = 0; id < sets; ++id) {
      ForEachMember(static_cast<RRId>(id),
                    [&](NodeId v) { ++full_offsets[v + 1]; });
    }
    for (uint32_t v = 0; v < n; ++v) full_offsets[v + 1] += full_offsets[v];
    std::vector<uint32_t> cursor(full_offsets.begin(), full_offsets.end() - 1);
    for (uint64_t id = 0; id < sets; ++id) {
      ForEachMember(static_cast<RRId>(id), [&](NodeId v) {
        cover_ids_[cursor[v]++] = static_cast<RRId>(id);
      });
    }
  } else {
    // Parallel counting sort over contiguous set ranges ("chunks"):
    // per-chunk node counts, a serial combine that turns them into
    // per-chunk write cursors, and a parallel placement pass. Chunks are
    // ordered by set id and cursors start at each chunk's global
    // position, so every node's id list comes out ascending — identical
    // to the serial result for any worker count.
    const unsigned chunks = workers;
    std::vector<uint64_t> chunk_set_end(chunks);
    for (unsigned c = 0; c < chunks; ++c) {
      chunk_set_end[c] = sets * (c + 1) / chunks;
    }
    std::vector<std::vector<uint32_t>> chunk_counts(chunks);
    pool->ParallelFor(chunks, [&](uint64_t c) {
      std::vector<uint32_t>& counts = chunk_counts[c];
      counts.assign(n, 0);
      const uint64_t lo = c == 0 ? 0 : chunk_set_end[c - 1];
      for (uint64_t id = lo; id < chunk_set_end[c]; ++id) {
        ForEachMember(static_cast<RRId>(id), [&](NodeId v) { ++counts[v]; });
      }
    });
    uint32_t acc = 0;
    for (uint32_t v = 0; v < n; ++v) {
      full_offsets[v] = acc;
      for (unsigned c = 0; c < chunks; ++c) {
        const uint32_t count = chunk_counts[c][v];
        chunk_counts[c][v] = acc;  // becomes chunk c's write cursor for v
        acc += count;
      }
    }
    full_offsets[n] = acc;
    pool->ParallelFor(chunks, [&](uint64_t c) {
      std::vector<uint32_t>& cursor = chunk_counts[c];
      const uint64_t lo = c == 0 ? 0 : chunk_set_end[c - 1];
      for (uint64_t id = lo; id < chunk_set_end[c]; ++id) {
        ForEachMember(static_cast<RRId>(id), [&](NodeId v) {
          cover_ids_[cursor[v]++] = static_cast<RRId>(id);
        });
      }
    });
  }

  // Stage 2: per-node representation selection + in-place compaction.
  // Raw postings for a node are rewritten left-to-right at or before
  // their original position (the kept total only shrinks), so the block
  // conversion reads ahead of every write and no temporary copy of the
  // postings is needed.
  block_words_.clear();
  block_masks_.clear();
  uint32_t write = 0;
  for (uint32_t v = 0; v < n; ++v) {
    const uint32_t lo = full_offsets[v];
    const uint32_t hi = full_offsets[v + 1];
    const uint32_t p = hi - lo;
    raw_offsets_[v] = write;
    block_offsets_[v] = static_cast<uint32_t>(block_words_.size());
    if (p == 0) continue;
    uint32_t blocks = 1;
    for (uint32_t i = lo + 1; i < hi; ++i) {
      blocks += (cover_ids_[i] >> 6) != (cover_ids_[i - 1] >> 6);
    }
    if (kBlockCostRatio * blocks <= p) {
      uint32_t word = cover_ids_[lo] >> 6;
      uint64_t mask = 0;
      for (uint32_t i = lo; i < hi; ++i) {
        const uint32_t w = cover_ids_[i] >> 6;
        if (w != word) {
          block_words_.push_back(word);
          block_masks_.push_back(mask);
          word = w;
          mask = 0;
        }
        mask |= uint64_t{1} << (cover_ids_[i] & 63);
      }
      block_words_.push_back(word);
      block_masks_.push_back(mask);
    } else {
      for (uint32_t i = lo; i < hi; ++i) {
        cover_ids_[write++] = cover_ids_[i];
      }
    }
  }
  raw_offsets_[n] = write;
  block_offsets_[n] = static_cast<uint32_t>(block_words_.size());
  cover_ids_.resize(write);
  cover_ids_.shrink_to_fit();
  block_words_.shrink_to_fit();
  block_masks_.shrink_to_fit();
}

/// Spill-file bookkeeping behind unique_ptr so the collection stays
/// movable; the mutex guards the file cursor and chunk transitions
/// (belt and suspenders — decode-side faulting is single-threaded by
/// contract, but SpillColdChunks may be called while no reads run).
struct RRCollection::SpillState {
  int fd = -1;
  std::mutex mu;
  uint64_t append_cursor = 0;  // next free byte of the spill file
  uint64_t lru_clock = 0;      // advanced on every decode / fault-in
  uint64_t resident_target = ~uint64_t{0};  // sticky; set by SpillColdChunks
  RRSpillStats stats;

  ~SpillState() {
    if (fd >= 0) ::close(fd);
  }
};

Status RRCollection::EnableSpill(const RRSpillOptions& options) {
  if (spill_ != nullptr) return Status::OK();
  // Create-and-unlink: the spill file has no name from here on, so it
  // disappears with the process no matter how the run exits.
  std::string tmpl = options.dir + "/opim_rr_spill_XXXXXX";
  std::vector<char> path(tmpl.begin(), tmpl.end());
  path.push_back('\0');
  const int fd = ::mkstemp(path.data());
  if (fd < 0) {
    return Status::IOError("cannot create RR spill file in " + options.dir +
                           ": " + std::strerror(errno));
  }
  ::unlink(path.data());
  auto state = std::make_unique<SpillState>();
  state->fd = fd;
  spill_ = std::move(state);
  return Status::OK();
}

Result<uint64_t> RRCollection::SpillColdChunks(
    uint64_t target_resident_bytes) {
  if (spill_ == nullptr) {
    return Status::FailedPrecondition(
        "SpillColdChunks before EnableSpill");
  }
  std::lock_guard<std::mutex> lock(spill_->mu);
  spill_->resident_target = target_resident_bytes;
  if (chunks_.size() <= 1) return uint64_t{0};  // nothing sealed yet

  uint64_t resident = 0;
  for (const PoolChunk& c : chunks_) resident += c.bytes.capacity();
  // Coldest first: chunks never decoded since the last fault carry the
  // oldest stamps, ties broken by chunk index (oldest sets first).
  std::vector<uint32_t> sealed;
  for (uint32_t i = 0; i + 1 < chunks_.size(); ++i) {
    if (chunks_[i].data != nullptr && chunks_[i].encoded_bytes > 0) {
      sealed.push_back(i);
    }
  }
  std::sort(sealed.begin(), sealed.end(), [this](uint32_t a, uint32_t b) {
    return chunks_[a].lru_stamp != chunks_[b].lru_stamp
               ? chunks_[a].lru_stamp < chunks_[b].lru_stamp
               : a < b;
  });

  uint64_t evicted = 0;
  for (uint32_t i : sealed) {
    if (resident <= target_resident_bytes) break;
    PoolChunk& c = chunks_[i];
    if (c.spill_offset == PoolChunk::kNotSpilled) {
      // First eviction pays the write; nothing is mutated until it
      // lands, so a failure leaves the collection fully usable and the
      // caller can degrade to the stop-at-budget path.
      if (OPIM_FAULT_POINT("io.short_write")) {
        return Status::IOError("injected short write on RR spill file");
      }
      const uint64_t off = spill_->append_cursor;
      if (Status w = io::PWriteFull(spill_->fd, c.bytes.data(),
                                    c.encoded_bytes, static_cast<off_t>(off));
          !w.ok()) {
        return Status::IOError("RR spill file: " + w.message());
      }
      c.spill_offset = off;
      spill_->append_cursor = off + c.encoded_bytes;
    }
    resident -= c.bytes.capacity();
    // swap with a temporary: `bytes = {}` would keep the capacity.
    std::vector<uint8_t>().swap(c.bytes);
    c.data = nullptr;
    ++evicted;
    ++spill_->stats.chunks_spilled;
  }
  OPIM_TM_COUNTER_ADD("opim.rrset.spill_chunks_spilled", evicted);
  OPIM_TM_GAUGE_SET("opim.rrset.spilled_bytes", SpilledBytes());
  return evicted;
}

const uint8_t* RRCollection::SpillAwareChunkData(uint32_t chunk) const {
  PoolChunk& c = chunks_[chunk];
  if (c.data == nullptr) FaultChunk(chunk);
  c.lru_stamp = ++spill_->lru_clock;
  return c.data;
}

void RRCollection::FaultChunk(uint32_t chunk) const {
  OPIM_CHECK_MSG(spill_ != nullptr,
                 "decode of an evicted chunk without spill state");
  std::lock_guard<std::mutex> lock(spill_->mu);
  PoolChunk& c = chunks_[chunk];
  if (c.data != nullptr) return;
  OPIM_CHECK_MSG(c.spill_offset != PoolChunk::kNotSpilled,
                 "evicted chunk has no spill offset");
  c.bytes.assign(c.encoded_bytes + kVarintDecodeSlackBytes, 0);
  // The file is unlinked and fully written; a read failure here is an
  // invariant break, not an expected runtime outcome.
  const Status read = io::PReadFull(spill_->fd, c.bytes.data(),
                                    c.encoded_bytes,
                                    static_cast<off_t>(c.spill_offset));
  OPIM_CHECK_MSG(read.ok(), "RR spill file read failed");
  c.data = c.bytes.data();
  ++spill_->stats.chunks_faulted;
  OPIM_TM_COUNTER_ADD("opim.rrset.spill_chunks_faulted", 1);

  // Keep residency at the sticky target: drop the coldest chunks that
  // are already on disk (re-eviction is free — no writes from the
  // decode path). The faulted chunk and the open chunk stay.
  uint64_t resident = 0;
  for (const PoolChunk& pc : chunks_) resident += pc.bytes.capacity();
  if (resident <= spill_->resident_target) return;
  std::vector<uint32_t> cand;
  for (uint32_t i = 0; i + 1 < chunks_.size(); ++i) {
    if (i == chunk) continue;
    if (chunks_[i].data != nullptr &&
        chunks_[i].spill_offset != PoolChunk::kNotSpilled) {
      cand.push_back(i);
    }
  }
  std::sort(cand.begin(), cand.end(), [this](uint32_t a, uint32_t b) {
    return chunks_[a].lru_stamp != chunks_[b].lru_stamp
               ? chunks_[a].lru_stamp < chunks_[b].lru_stamp
               : a < b;
  });
  uint64_t evicted = 0;
  for (uint32_t i : cand) {
    if (resident <= spill_->resident_target) break;
    resident -= chunks_[i].bytes.capacity();
    std::vector<uint8_t>().swap(chunks_[i].bytes);
    chunks_[i].data = nullptr;
    ++evicted;
    ++spill_->stats.chunks_spilled;
  }
  OPIM_TM_COUNTER_ADD("opim.rrset.spill_chunks_spilled", evicted);
}

uint64_t RRCollection::SpilledBytes() const {
  uint64_t bytes = 0;
  for (const PoolChunk& c : chunks_) {
    if (c.data == nullptr && c.spill_offset != PoolChunk::kNotSpilled) {
      bytes += c.encoded_bytes;
    }
  }
  return bytes;
}

RRSpillStats RRCollection::SpillStats() const {
  return spill_ != nullptr ? spill_->stats : RRSpillStats{};
}

std::vector<NodeId> RRCollection::DecodeSet(RRId id) const {
  std::vector<NodeId> out;
  out.reserve(SetSize(id));
  ForEachMember(id, [&](NodeId v) { out.push_back(v); });
  return out;
}

uint32_t RRCollection::CoveringCount(NodeId v) const {
  const CoverPostings p = Covering(v);
  uint64_t count = p.ids.size();
  for (uint64_t mask : p.masks) count += std::popcount(mask);
  return static_cast<uint32_t>(count);
}

std::vector<RRId> RRCollection::DecodeCovering(NodeId v) const {
  std::vector<RRId> out;
  ForEachCovering(v, [&](RRId id) { out.push_back(id); });
  return out;
}

std::span<const uint64_t> RRCollection::MemberCounts() const {
  if (member_counts_.size() != num_nodes_ || counts_accounted_ != num_sets_) {
    AccountMemberCounts();
  }
  return member_counts_;
}

void RRCollection::AccountMemberCounts() const {
  OPIM_TM_SCOPED_TIMER("opim.rrset.member_counts_us");
  if (member_counts_.size() != num_nodes_) {
    // First use (or a restore replaced the pool wholesale): materialize
    // and fold every set. This is the one full-pool decode the counts
    // ever pay; every later doubling folds only its shard deltas.
    member_counts_.assign(num_nodes_, 0);
    member_nonzero_.clear();
    counts_accounted_ = 0;
  }
  OPIM_TR_SPAN1("member_counts", "rrset", "delta_sets",
                num_sets_ - counts_accounted_);
  for (RRId id = static_cast<RRId>(counts_accounted_); id < num_sets_; ++id) {
    ForEachMember(id, [&](NodeId v) {
      if (member_counts_[v]++ == 0) member_nonzero_.push_back(v);
    });
  }
  counts_accounted_ = num_sets_;
}

std::span<const NodeId> RRCollection::MemberNonzero() const {
  MemberCounts();  // materialize / fold pending sets; keeps the list current
  return member_nonzero_;
}

uint64_t RRCollection::CoverageOf(std::span<const NodeId> seeds) const {
  if (index_dirty_) RebuildIndex(nullptr);
  cover_scratch_.Reset(num_sets_);
  uint64_t* words = cover_scratch_.words();
  uint64_t covered = 0;
  for (NodeId v : seeds) {
    const CoverPostings p = Covering(v);
    ForEachNewlyCoveredIds(p.ids, words, [&](RRId) { ++covered; });
    for (size_t i = 0; i < p.words.size(); ++i) {
      const uint64_t fresh = p.masks[i] & ~words[p.words[i]];
      covered += std::popcount(fresh);
      words[p.words[i]] |= fresh;
    }
  }
  return covered;
}

double RRCollection::EstimateSpread(std::span<const NodeId> seeds) const {
  if (num_sets() == 0) return 0.0;
  return static_cast<double>(CoverageOf(seeds)) * num_nodes() / num_sets();
}

std::span<const uint8_t> RRCollection::ChunkRun(uint32_t chunk) const {
  OPIM_CHECK_LT(chunk, chunks_.size());
  const PoolChunk& c = chunks_[chunk];
  if (c.encoded_bytes == 0) return {};
  // Faulting chunk `chunk` may evict a colder chunk past the sticky
  // resident target — never `chunk` itself, so the span stays valid
  // until the next decode or append.
  const uint8_t* data =
      spill_ != nullptr ? SpillAwareChunkData(chunk) : c.data;
  return {data, c.encoded_bytes};
}

RRCollection RRCollection::RestoreFromSnapshotParts(
    uint32_t num_nodes, RRStoreOptions options,
    std::vector<std::vector<uint8_t>> chunk_runs, std::vector<uint32_t> slots,
    std::vector<uint64_t> costs, uint64_t total_members,
    uint64_t total_edges_examined) {
  RRCollection rr(num_nodes, options);
  const size_t sets = slots.size();
  const size_t expected_chunks =
      sets == 0 ? 0 : (sets + ((1u << kChunkShift) - 1)) >> kChunkShift;
  OPIM_CHECK_EQ(chunk_runs.size(), expected_chunks);
  OPIM_CHECK(options.retain_set_costs ? costs.size() == sets : costs.empty());

  rr.chunks_.reserve(chunk_runs.size());
  for (std::vector<uint8_t>& run : chunk_runs) {
    PoolChunk c;
    c.encoded_bytes = run.size();
    rr.pool_bytes_ += run.size();
    if (!run.empty()) {
      run.resize(run.size() + kVarintDecodeSlackBytes, 0);
      c.bytes = std::move(run);
      c.data = c.bytes.data();
    }
    rr.chunks_.push_back(std::move(c));
  }
  rr.num_sets_ = static_cast<uint32_t>(sets);
  rr.slot_ = std::move(slots);
  rr.set_cost_ = std::move(costs);
  rr.total_members_ = total_members;
  rr.total_edges_examined_ = total_edges_examined;
  // The index is a deterministic function of the pool; rebuild on first
  // read (or EnsureIndex) instead of shipping it through the snapshot.
  rr.index_dirty_ = rr.num_sets_ > 0;
  return rr;
}

}  // namespace opim
