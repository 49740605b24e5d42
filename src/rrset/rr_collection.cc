#include "rrset/rr_collection.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
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

/// Below this many total postings a serial index pass beats the fan-out
/// overhead.
constexpr uint64_t kParallelIndexMinPostings = 1u << 16;

/// A partition takes a batch's postings in place when it already holds
/// at least this many times as many; otherwise it is rewritten. Small
/// online advances onto a grown pool append; θ0 fills, doublings and
/// BuildIndex, whose batches are as large as the pool, rewrite.
constexpr uint64_t kInPlaceMergeFactor = 4;

/// Counting-sorts members into `shard`'s postings by index partition:
/// `for_each_member(fn)` calls fn(local set index, node) in ascending set
/// order, so each partition's postings come out in ascending local set
/// order. O(members + partitions). The postings are published last, so a
/// shard reads as finalized() only once they are whole. Returns the
/// member total.
template <typename ForEachMember>
uint64_t BuildPostings(uint32_t num_nodes, ForEachMember&& for_each_member,
                       CompressedRRShard* shard) {
  const uint32_t parts = rrpart::Count(num_nodes);
  std::vector<uint64_t> offsets(parts + 1, 0);
  for_each_member([&](RRId, NodeId v) {
    OPIM_DCHECK_LT(v, num_nodes);
    ++offsets[(v >> rrpart::kShift) + 1];
  });
  for (uint32_t p = 0; p < parts; ++p) offsets[p + 1] += offsets[p];
  const uint64_t members = offsets[parts];
  // The published offsets are 32-bit.
  OPIM_CHECK_LE(members, uint64_t{UINT32_MAX});
  std::vector<uint16_t> nodes(members);
  std::vector<RRId> sets(members);
  std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for_each_member([&](RRId local, NodeId v) {
    const uint64_t at = cursor[v >> rrpart::kShift]++;
    nodes[at] = static_cast<uint16_t>(v & (rrpart::kWidth - 1));
    sets[at] = local;
  });
  shard->post_nodes = std::move(nodes);
  shard->post_sets = std::move(sets);
  std::vector<uint32_t> part_offsets(parts + 1);
  std::copy(offsets.begin(), offsets.end(), part_offsets.begin());
  shard->part_offsets = std::move(part_offsets);
  return members;
}

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
  shard_.recs.push_back(rec);
  shard_.edges_examined += cost;
}

CompressedRRShard ShardEncoder::Finish(uint32_t num_nodes, bool postings) {
  Finalize(&shard_, num_nodes, postings);
  CompressedRRShard out = std::move(shard_);
  shard_ = {};
  return out;
}

void ShardEncoder::Finalize(CompressedRRShard* shard, uint32_t num_nodes,
                            bool postings) {
  if (postings ? shard->finalized() : shard->sealed) return;
  // Drop orphan trailing bytes (a worker that threw mid-Add may have
  // appended an encoding without its record).
  uint64_t used = 0;
  for (uint32_t rec : shard->recs) {
    if (!(rec & rrslot::kInlineTag)) used += rec;
  }
  shard->bytes.resize(used);
  shard->sealed = true;
  if (!postings) {
    // Without postings to count them, the members are counted from the
    // records: one header read per encoded set.
    uint64_t members = 0;
    const uint8_t* p = shard->bytes.data();
    for (uint32_t rec : shard->recs) {
      if (!(rec & rrslot::kInlineTag)) {
        members += DecodedRRMemberCount(p);
        p += rec;
      } else if (rec != rrslot::kEmpty) {
        ++members;
      }
    }
    shard->total_members = members;
    return;
  }
  // Temporary decode slack: the counting-sort passes below read via the
  // fast decoder.
  shard->bytes.resize(used + kVarintDecodeSlackBytes, 0);

  const uint32_t sets = static_cast<uint32_t>(shard->recs.size());
  auto for_each_member = [&](auto&& fn) {
    const uint8_t* p = shard->bytes.data();
    for (uint32_t local = 0; local < sets; ++local) {
      const uint32_t rec = shard->recs[local];
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
  shard->total_members = BuildPostings(num_nodes, for_each_member, shard);
  shard->bytes.resize(used);  // strip the temporary slack again
}

RRCollection::RRCollection(uint32_t num_nodes, RRStoreOptions options)
    : num_nodes_(num_nodes), indexed_(options.index) {
  // One slot bit tags inline sets, so ids must fit in 31 bits.
  OPIM_CHECK_LT(num_nodes, kSlotInlineTag);
  if (indexed_) AllocateIndex();
}

void RRCollection::AllocateIndex() {
  parts_.resize(rrpart::Count(num_nodes_));
  extents_.resize(num_nodes_);
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
  if (indexed_) {
    for (NodeId v : addset_scratch_) {
      if (const uint32_t b = AppendPosting(v, id); b < kMemberBands) {
        bands_[b].push_back(v);
      }
    }
  }
  total_edges_examined_ += edges_examined;
  return id;
}

uint32_t RRCollection::AppendPosting(NodeId v, RRId id) {
  Extent& e = extents_[v];
  IndexPart& part = parts_[v >> kPartShift];
  const uint64_t end = uint64_t{e.begin} + e.size;
  if (e.size != 0 && end < part.ids.size() && part.ids[end] == kFreeId) {
    part.ids[end] = id;
    ++e.size;
    ++part.live;
  } else {
    GrowExtent(v, id);
  }
  return std::has_single_bit(e.size)
             ? static_cast<uint32_t>(std::bit_width(e.size)) - 1
             : kMemberBands;
}

void RRCollection::GrowExtent(NodeId v, RRId id) {
  Extent& e = extents_[v];
  const uint32_t p = v >> kPartShift;
  IndexPart& part = parts_[p];
  const uint64_t size = e.size;
  // Extend in place when the extent already ends at the arena's tail.
  const bool in_place =
      size != 0 && uint64_t{e.begin} + size == part.ids.size();
  const uint64_t begin = in_place ? e.begin : part.ids.size();
  // Twice the size; the minimum spares the many short lists a second move.
  const uint64_t cap = std::max<uint64_t>(2 * (size + 1), 4);
  OPIM_CHECK_LE(begin + cap, uint64_t{kFreeId});
  part.ids.resize(begin + cap, kFreeId);
  // The new extent starts past the old one, so the two never overlap.
  if (!in_place) {
    std::copy_n(part.ids.begin() + e.begin, size, part.ids.begin() + begin);
    part.dead += size;
  }
  part.ids[begin + size] = id;
  ++part.live;
  e.begin = static_cast<uint32_t>(begin);
  e.size = static_cast<uint32_t>(size + 1);
  // Compact: a rewrite with nothing to append writes the partition
  // tightly, dropping dead entries and slack alike.
  if (part.dead > part.live) RewritePartition(p, {}, {}, nullptr);
}

void RRCollection::AddCompressedShards(std::vector<CompressedRRShard> shards,
                                       ThreadPool* pool) {
  OPIM_TR_SPAN1("ingest", "rrset", "shards", shards.size());
  OPIM_TM_SCOPED_TIMER("opim.rrset.ingest_us");
  uint64_t add_sets = 0;
  for (CompressedRRShard& shard : shards) {
    // A no-op on Finish output for this collection.
    ShardEncoder::Finalize(&shard, num_nodes_, indexed_);
    if (indexed_) {
      OPIM_CHECK_EQ(shard.part_offsets.size(), parts_.size() + 1);
    }
    add_sets += shard.recs.size();
  }
  if (add_sets == 0) return;

  // Serial assembly: each shard's byte stream is appended in contiguous
  // runs split only at chunk boundaries (sets are consecutive within a
  // shard), slots follow the record walk in shard-major, sample-minor
  // append order.
  std::vector<RRId> shard_bases;
  shard_bases.reserve(shards.size());
  slot_.reserve(slot_.size() + add_sets);
  for (const CompressedRRShard& shard : shards) {
    shard_bases.push_back(num_sets_);
    const uint8_t* src = shard.bytes.data();
    uint64_t src_pos = 0;  // bytes of this shard already flushed
    uint64_t run_len = 0;  // bytes pending for the open chunk
    for (uint32_t rec : shard.recs) {
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
    }
    if (run_len > 0) {
      AppendRunToOpenChunk(src + src_pos, run_len);
      src_pos += run_len;
    }
    OPIM_CHECK_EQ(src_pos, shard.bytes.size());
    total_members_ += shard.total_members;
    total_edges_examined_ += shard.edges_examined;
  }
  OPIM_TM_GAUGE_SET("opim.rrset.compressed_bytes", pool_bytes_);
  if (!indexed_) return;
  OPIM_TR_SPAN1("index_merge", "rrset", "sets", num_sets_);
  OPIM_TM_SCOPED_TIMER("opim.rrset.index_merge_us");
  OPIM_TM_COUNTER_ADD("opim.rrset.index_merges", 1);
  AppendShardPostings(shards, shard_bases, pool);
}

void RRCollection::AppendShardPostings(
    std::span<const CompressedRRShard> shards,
    std::span<const RRId> shard_bases, ThreadPool* pool) {
  const uint32_t num_parts = static_cast<uint32_t>(parts_.size());
  // The powers of two each partition's counts reach; appended to the
  // bands in partition order below.
  std::vector<std::vector<BandEvent>> events(num_parts);
  auto append = [&](uint32_t p) {
    uint64_t added = 0;
    for (const CompressedRRShard& shard : shards) {
      added += shard.part_offsets[p + 1] - shard.part_offsets[p];
    }
    if (added == 0) return;
    if (parts_[p].live < kInPlaceMergeFactor * added) {
      RewritePartition(p, shards, shard_bases, &events[p]);
      return;
    }
    // In shard order, and each shard lists the partition's postings in
    // ascending local id, so every node's new ids arrive ascending.
    OPIM_TM_COUNTER_ADD("opim.rrset.index_parts_in_place", 1);
    const NodeId lo = p << kPartShift;
    for (size_t s = 0; s < shards.size(); ++s) {
      const CompressedRRShard& shard = shards[s];
      for (uint32_t i = shard.part_offsets[p]; i < shard.part_offsets[p + 1];
           ++i) {
        const NodeId v = lo + shard.post_nodes[i];
        const uint32_t b =
            AppendPosting(v, shard_bases[s] + shard.post_sets[i]);
        if (b < kMemberBands) events[p].push_back({b, v});
      }
    }
  };
  if (pool != nullptr && pool->num_threads() > 1 && num_parts > 1 &&
      total_members_ >= kParallelIndexMinPostings) {
    pool->ParallelFor(num_parts,
                      [&](uint64_t p) { append(static_cast<uint32_t>(p)); });
  } else {
    for (uint32_t p = 0; p < num_parts; ++p) append(p);
  }
  for (const std::vector<BandEvent>& part_events : events) {
    for (const BandEvent& e : part_events) bands_[e.band].push_back(e.node);
  }
}

void RRCollection::RewritePartition(uint32_t p,
                                    std::span<const CompressedRRShard> shards,
                                    std::span<const RRId> shard_bases,
                                    std::vector<BandEvent>* events) {
  const NodeId lo = p << kPartShift;
  const uint32_t width = PartitionEnd(p) - lo;
  IndexPart& part = parts_[p];

  // Gather the partition's new postings by node: one counting sort, read
  // shard by shard in shard order. Each shard lists a partition's
  // postings in ascending local id, so every node's new ids come out
  // ascending; node lo + w's are new_ids[new_at[w], new_at[w + 1]).
  uint64_t added = 0;
  for (const CompressedRRShard& shard : shards) {
    added += shard.part_offsets[p + 1] - shard.part_offsets[p];
  }
  OPIM_CHECK_LT(added, uint64_t{kFreeId});  // new_at is 32-bit
  std::vector<uint32_t> new_at(width + 1, 0);
  for (const CompressedRRShard& shard : shards) {
    for (uint32_t i = shard.part_offsets[p]; i < shard.part_offsets[p + 1];
         ++i) {
      ++new_at[shard.post_nodes[i] + 1];
    }
  }
  for (uint32_t w = 0; w < width; ++w) new_at[w + 1] += new_at[w];
  std::vector<RRId> new_ids(added);
  std::vector<uint32_t> cursor(new_at.begin(), new_at.end() - 1);
  for (size_t s = 0; s < shards.size(); ++s) {
    const CompressedRRShard& shard = shards[s];
    for (uint32_t i = shard.part_offsets[p]; i < shard.part_offsets[p + 1];
         ++i) {
      new_ids[cursor[shard.post_nodes[i]]++] =
          shard_bases[s] + shard.post_sets[i];
    }
  }

  // Write every list tightly into a fresh arena — old run first, then
  // the new ids, so each list comes out ascending without a sort.
  const uint64_t total = part.live + added;
  OPIM_CHECK_LT(total, uint64_t{kFreeId});
  std::vector<RRId> ids(total);
  uint32_t at = 0;
  for (uint32_t w = 0; w < width; ++w) {
    const NodeId v = lo + w;
    Extent& e = extents_[v];
    const uint32_t old_size = e.size;
    const uint32_t add = new_at[w + 1] - new_at[w];
    std::copy_n(part.ids.begin() + e.begin, old_size, ids.begin() + at);
    std::copy_n(new_ids.begin() + new_at[w], add,
                ids.begin() + at + old_size);
    e.begin = at;
    e.size = old_size + add;
    at += e.size;
    // One event per power of two in (old size, new size]; none when the
    // list gained nothing, as in a compaction.
    for (auto b = static_cast<uint32_t>(std::bit_width(old_size));
         (uint64_t{1} << b) <= e.size; ++b) {
      events->push_back({b, v});
    }
  }
  OPIM_DCHECK_EQ(uint64_t{at}, total);
  part.ids = std::move(ids);
  part.live = total;
  part.dead = 0;
}

void RRCollection::BuildIndex(ThreadPool* pool) {
  OPIM_CHECK_MSG(!indexed_, "BuildIndex on an indexed RR collection");
  indexed_ = true;
  AllocateIndex();
  OPIM_TR_SPAN1("index_rebuild", "rrset", "sets", num_sets_);
  OPIM_TM_SCOPED_TIMER("opim.rrset.index_rebuild_us");
  OPIM_TM_COUNTER_ADD("opim.rrset.index_rebuilds", 1);
  // One posting shard per contiguous set range, decoded in parallel
  // unless spill is armed (a decode can fault chunks in, so it must stay
  // on one thread). Ranges are in set order, so appending them as a
  // batch yields each node's postings ascending.
  const unsigned workers =
      pool != nullptr && spill_ == nullptr &&
              total_members_ >= kParallelIndexMinPostings
          ? pool->num_threads()
          : 1;
  const uint32_t ranges = std::min<uint32_t>(workers, num_sets_);
  std::vector<CompressedRRShard> shards(ranges);
  std::vector<RRId> bases(ranges);
  auto decode = [&](uint64_t r) {
    const auto lo = static_cast<RRId>(uint64_t{num_sets_} * r / ranges);
    const auto hi = static_cast<RRId>(uint64_t{num_sets_} * (r + 1) / ranges);
    bases[r] = lo;
    BuildPostings(
        num_nodes_,
        [&](auto&& fn) {
          for (RRId id = lo; id < hi; ++id) {
            ForEachMember(id, [&](NodeId v) { fn(id - lo, v); });
          }
        },
        &shards[r]);
  };
  if (ranges > 1) {
    pool->ParallelFor(ranges, decode);
  } else if (ranges == 1) {
    decode(0);
  }
  AppendShardPostings(shards, bases, ranges > 1 ? pool : nullptr);
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

uint64_t RRCollection::CoverageOf(std::span<const NodeId> seeds) const {
  if (indexed_) return MarkCovered(seeds, nullptr);
  return CoverageByPrefix(seeds).back();
}

std::vector<uint64_t> RRCollection::CoverageByPrefix(
    std::span<const NodeId> seeds) const {
  std::vector<uint64_t> at(seeds.size() + 1, 0);
  if (indexed_) {
    MarkCovered(seeds, at.data() + 1);
    return at;
  }
  ScanFirstCovered(seeds, at.data() + 1);
  for (size_t i = 1; i < at.size(); ++i) at[i] += at[i - 1];
  return at;
}

uint64_t RRCollection::MarkCovered(std::span<const NodeId> seeds,
                                   uint64_t* prefix) const {
  cover_scratch_.Reset(num_sets_);
  uint64_t* words = cover_scratch_.words();
  uint64_t covered = 0;
  for (size_t s = 0; s < seeds.size(); ++s) {
    ForEachNewlyCoveredIds(Covering(seeds[s]), words,
                           [&](RRId) { ++covered; });
    if (prefix != nullptr) prefix[s] = covered;
  }
  return covered;
}

void RRCollection::ScanFirstCovered(std::span<const NodeId> seeds,
                                    uint64_t* first) const {
  OPIM_TR_SPAN1("judge_scan", "rrset", "sets", num_sets_);
  OPIM_TM_SCOPED_TIMER("opim.rrset.judge_scan_us");
  // An n-bit seed bitmap answers the per-member test; (node, first
  // position) pairs sorted by node give a hit its position.
  std::vector<uint64_t> is_seed((uint64_t{num_nodes_} + 63) >> 6, 0);
  std::vector<std::pair<NodeId, uint32_t>> position;
  position.reserve(seeds.size());
  for (size_t i = 0; i < seeds.size(); ++i) {
    const NodeId v = seeds[i];
    OPIM_CHECK_LT(v, num_nodes_);
    const uint64_t bit = uint64_t{1} << (v & 63);
    if (is_seed[v >> 6] & bit) continue;  // a duplicate keeps its first
    is_seed[v >> 6] |= bit;
    position.emplace_back(v, static_cast<uint32_t>(i));
  }
  std::sort(position.begin(), position.end());
  auto hit = [&](NodeId v) { return (is_seed[v >> 6] >> (v & 63)) & 1; };
  auto position_of = [&](NodeId v) {
    return std::lower_bound(position.begin(), position.end(),
                            std::pair<NodeId, uint32_t>{v, 0})
        ->second;
  };
  constexpr uint32_t kNone = ~uint32_t{0};
  for (uint32_t c = 0; c < chunks_.size(); ++c) {
    const RRId lo = c << kChunkShift;
    const RRId hi = static_cast<RRId>(
        std::min<uint64_t>(num_sets_, uint64_t{lo} + (1u << kChunkShift)));
    // Fault a spilled chunk in once per pass, and only when some set in
    // it is stored in the pool.
    const uint8_t* data = nullptr;
    if (chunks_[c].encoded_bytes > 0) {
      data = spill_ != nullptr ? SpillAwareChunkData(c) : chunks_[c].data;
    }
    for (RRId id = lo; id < hi; ++id) {
      const uint32_t slot = slot_[id];
      if (slot & kSlotInlineTag) {
        const NodeId v = slot & ~kSlotInlineTag;
        if (slot != kEmptySlot && hit(v)) ++first[position_of(v)];
        continue;
      }
      uint32_t earliest = kNone;
      DecodeRRMembersForEach(data + slot, [&](NodeId v) {
        if (hit(v)) earliest = std::min(earliest, position_of(v));
      });
      if (earliest != kNone) ++first[earliest];
    }
  }
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
    uint32_t num_nodes, std::vector<std::vector<uint8_t>> chunk_runs,
    std::vector<uint32_t> slots, uint64_t total_members,
    uint64_t total_edges_examined) {
  RRCollection rr(num_nodes, {.index = false});
  const size_t sets = slots.size();
  const size_t expected_chunks =
      sets == 0 ? 0 : (sets + ((1u << kChunkShift) - 1)) >> kChunkShift;
  OPIM_CHECK_EQ(chunk_runs.size(), expected_chunks);

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
  rr.total_members_ = total_members;
  rr.total_edges_examined_ = total_edges_examined;
  return rr;
}

}  // namespace opim
