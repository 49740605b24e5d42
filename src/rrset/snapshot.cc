#include "rrset/snapshot.h"

#include <errno.h>
#include <stdio.h>
#include <string.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <utility>
#include <vector>

#include "graph/graph_mmap.h"
#include "rrset/varint_codec.h"
#include "support/atomic_file.h"
#include "support/fault_inject.h"
#include "support/macros.h"

namespace opim {
namespace {

constexpr char kOpimssMagic[8] = {'O', 'P', 'I', 'M', 'S', 'S', 'v', '1'};

#pragma pack(push, 1)
// 64-byte container header, mirroring the .opimg conventions
// (graph/graph_mmap.cc): magic + version + self-described header size,
// then the payload length and its word-wise FNV-1a checksum.
struct OpimssHeader {
  char magic[8];
  uint32_t version;
  uint32_t header_bytes;
  uint32_t flags;
  uint32_t reserved_a;
  uint64_t payload_bytes;
  uint64_t payload_checksum;
  uint64_t reserved[3];
};

// Per-pool section header inside the payload.
struct PoolSectionHeader {
  uint32_t num_nodes;
  uint32_t num_sets;
  uint32_t num_chunks;
  uint32_t reserved;  // must be 0
  uint64_t total_members;
  uint64_t total_edges_examined;
  uint64_t encoded_pool_bytes;
};
#pragma pack(pop)
static_assert(sizeof(OpimssHeader) == kOpimssHeaderBytes);
static_assert(offsetof(OpimssHeader, version) == kOpimssVersionOffset);
static_assert(offsetof(OpimssHeader, payload_bytes) ==
              kOpimssPayloadBytesOffset);
static_assert(offsetof(OpimssHeader, payload_checksum) ==
              kOpimssChecksumOffset);
static_assert(sizeof(PoolSectionHeader) == 40);

constexpr uint32_t kSetsPerChunk = 4096;  // RRCollection's chunk size
constexpr uint32_t kInlineTag = rrslot::kInlineTag;
constexpr uint32_t kEmptySlot = rrslot::kEmpty;

void AppendBytes(std::vector<uint8_t>* out, const void* data, size_t len) {
  if (len == 0) return;  // empty spans hand out data() == nullptr
  const uint8_t* p = static_cast<const uint8_t*>(data);
  out->insert(out->end(), p, p + len);
}

template <typename T>
void AppendPod(std::vector<uint8_t>* out, const T& value) {
  AppendBytes(out, &value, sizeof(T));
}

void AppendPool(std::vector<uint8_t>* out, const RRCollection& rr) {
  PoolSectionHeader h{};
  h.num_nodes = rr.num_nodes();
  h.num_sets = rr.num_sets();
  h.num_chunks = rr.num_pool_chunks();
  h.total_members = rr.total_size();
  h.total_edges_examined = rr.total_edges_examined();
  h.encoded_pool_bytes = rr.CompressedMemberBytes();
  AppendPod(out, h);
  const std::span<const uint32_t> slots = rr.slots();
  AppendBytes(out, slots.data(), slots.size_bytes());
  for (uint32_t c = 0; c < h.num_chunks; ++c) {
    // Copy immediately: with the spill tier armed, faulting chunk c+1
    // in may evict chunk c's buffer.
    const std::span<const uint8_t> run = rr.ChunkRun(c);
    AppendPod(out, static_cast<uint64_t>(run.size()));
    AppendBytes(out, run.data(), run.size());
  }
}

/// Bounds-checked forward reader over the payload. Every Read names
/// what it was reading so a corrupt declared length fails with a
/// message pointing at the oversized section, not a crash.
class PayloadCursor {
 public:
  PayloadCursor(const std::string& path, std::span<const uint8_t> payload)
      : path_(path), p_(payload.data()), remaining_(payload.size()) {}

  Status Read(void* out, uint64_t len, const char* what) {
    OPIM_RETURN_NOT_OK(Skip(len, what));
    // An empty destination (e.g. a zero-set slot array) is a null
    // data() pointer; memcpy's arguments are declared nonnull.
    if (len > 0) std::memcpy(out, p_ - len, len);
    return Status::OK();
  }

  Status View(std::span<const uint8_t>* out, uint64_t len, const char* what) {
    OPIM_RETURN_NOT_OK(Skip(len, what));
    *out = {p_ - len, static_cast<size_t>(len)};
    return Status::OK();
  }

  Status Skip(uint64_t len, const char* what) {
    if (len > remaining_) {
      return Status::InvalidArgument(
          path_ + ": snapshot declares oversized " + std::string(what) +
          " (" + std::to_string(len) + " bytes, " +
          std::to_string(remaining_) + " remain)");
    }
    p_ += len;
    remaining_ -= len;
    return Status::OK();
  }

  uint64_t remaining() const { return remaining_; }

 private:
  const std::string& path_;
  const uint8_t* p_;
  uint64_t remaining_;
};

/// Validates and reassembles one pool section. The payload checksum has
/// already passed, but a hand-crafted (or checksum-fixed) file must
/// still never produce UB: every slot offset, chunk run, and set
/// encoding is checked before RRCollection sees it.
Result<RRCollection> LoadPool(const std::string& path, PayloadCursor* cur,
                              const char* pool_name) {
  PoolSectionHeader h{};
  OPIM_RETURN_NOT_OK(cur->Read(&h, sizeof(h), "pool header"));
  if (h.num_nodes >= kInlineTag) {
    return Status::InvalidArgument(path + ": snapshot pool " + pool_name +
                                   " declares out-of-range node count");
  }
  if (h.reserved != 0) {
    return Status::InvalidArgument(path + ": snapshot pool " + pool_name +
                                   " has a nonzero reserved header word");
  }
  const uint64_t expected_chunks =
      h.num_sets == 0 ? 0 : (uint64_t{h.num_sets} + kSetsPerChunk - 1) /
                                kSetsPerChunk;
  if (h.num_chunks != expected_chunks) {
    return Status::InvalidArgument(
        path + ": snapshot pool " + pool_name + " chunk count mismatch (" +
        std::to_string(h.num_chunks) + " declared, " +
        std::to_string(expected_chunks) + " expected for " +
        std::to_string(h.num_sets) + " sets)");
  }

  std::vector<uint32_t> slots(h.num_sets);
  OPIM_RETURN_NOT_OK(
      cur->Read(slots.data(), uint64_t{h.num_sets} * sizeof(uint32_t),
                "pool slot array"));

  uint64_t members = 0;
  uint64_t encoded_total = 0;
  std::vector<std::vector<uint8_t>> runs(h.num_chunks);
  std::vector<NodeId> decode_scratch;
  for (uint32_t c = 0; c < h.num_chunks; ++c) {
    uint64_t run_len = 0;
    OPIM_RETURN_NOT_OK(cur->Read(&run_len, sizeof(run_len), "chunk run length"));
    if (run_len >= kInlineTag) {
      // Slot offsets are 31-bit chunk-relative, so a longer run cannot
      // have been written by the serializer.
      return Status::InvalidArgument(path + ": snapshot declares oversized " +
                                     std::string("chunk run (") +
                                     std::to_string(run_len) + " bytes)");
    }
    std::span<const uint8_t> run;
    OPIM_RETURN_NOT_OK(cur->View(&run, run_len, "chunk run"));
    encoded_total += run_len;

    // The serializer appends sets contiguously, so the non-inline slots
    // of a chunk tile its run exactly: the first sits at offset 0, each
    // encoding ends where the next non-inline slot begins, and the last
    // ends at the run's end. DecodeRRMembersChecked enforces
    // ends-exactly-at-the-boundary, so validating the offsets plus
    // decoding every span proves the tiling.
    const uint32_t first_set = c * kSetsPerChunk;
    const uint32_t last_set =
        std::min<uint32_t>(first_set + kSetsPerChunk, h.num_sets);
    std::vector<uint64_t> offsets;
    for (uint32_t id = first_set; id < last_set; ++id) {
      const uint32_t slot = slots[id];
      if (slot & kInlineTag) {
        if (slot != kEmptySlot && (slot & ~kInlineTag) >= h.num_nodes) {
          return Status::InvalidArgument(
              path + ": snapshot inline member out of range (set " +
              std::to_string(id) + ")");
        }
        if (slot != kEmptySlot) ++members;
        continue;
      }
      const bool in_order = offsets.empty()
                                ? slot == 0
                                : uint64_t{slot} > offsets.back();
      if (!in_order || slot >= run_len) {
        return Status::InvalidArgument(
            path + ": snapshot slot offset out of order (set " +
            std::to_string(id) + " at offset " + std::to_string(slot) +
            " in a " + std::to_string(run_len) + "-byte run)");
      }
      offsets.push_back(slot);
    }
    if (offsets.empty() && run_len != 0) {
      return Status::InvalidArgument(
          path + ": snapshot chunk " + std::to_string(c) +
          " has a byte run but no non-inline sets");
    }
    for (size_t j = 0; j < offsets.size(); ++j) {
      const uint64_t begin = offsets[j];
      const uint64_t end = j + 1 < offsets.size() ? offsets[j + 1] : run_len;
      if (Status s = DecodeRRMembersChecked(run.subspan(begin, end - begin),
                                            h.num_nodes, &decode_scratch);
          !s.ok()) {
        return Status::InvalidArgument(path + ": corrupt RR-set encoding: " +
                                       s.message());
      }
      members += decode_scratch.size();
    }
    runs[c].assign(run.begin(), run.end());
  }

  if (encoded_total != h.encoded_pool_bytes) {
    return Status::InvalidArgument(
        path + ": snapshot pool byte total mismatch (" +
        std::to_string(encoded_total) + " summed, " +
        std::to_string(h.encoded_pool_bytes) + " declared)");
  }
  if (members != h.total_members) {
    return Status::InvalidArgument(
        path + ": snapshot member total mismatch (" + std::to_string(members) +
        " decoded, " + std::to_string(h.total_members) + " declared)");
  }

  // The index is not serialized; BuildIndex rebuilds it.
  return RRCollection::RestoreFromSnapshotParts(
      h.num_nodes, std::move(runs), std::move(slots), h.total_members,
      h.total_edges_examined);
}

}  // namespace

uint64_t SnapshotWeightsChecksum(std::span<const double> weights) {
  if (weights.empty()) return 0;
  return OpimgChecksum(weights.data(), weights.size_bytes());
}

Result<uint64_t> SaveSnapshot(const SnapshotRunState& run,
                              const RRCollection& r1, const RRCollection& r2,
                              const std::string& path) {
  std::vector<uint8_t> payload;
  AppendPod(&payload, run);
  AppendPool(&payload, r1);
  AppendPool(&payload, r2);

  OpimssHeader h{};
  std::memcpy(h.magic, kOpimssMagic, sizeof(kOpimssMagic));
  h.version = kOpimssVersion;
  h.header_bytes = sizeof(OpimssHeader);
  h.payload_bytes = payload.size();
  h.payload_checksum = OpimgChecksum(payload.data(), payload.size());

  std::vector<uint8_t> file;
  file.reserve(sizeof(h) + payload.size());
  AppendPod(&file, h);
  file.insert(file.end(), payload.begin(), payload.end());
  if (OPIM_FAULT_POINT("snapshot.corrupt_header")) {
    file[0] ^= 0xFF;  // torn-write simulation: the loader must reject it
  }
  OPIM_RETURN_NOT_OK(WriteFileAtomic(path, file));
  return static_cast<uint64_t>(file.size());
}

Result<RRPoolSnapshot> LoadSnapshot(const std::string& path) {
  FILE* f = ::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open snapshot " + path + ": " +
                           ::strerror(errno));
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> file(size > 0 ? static_cast<size_t>(size) : 0);
  if (!file.empty() && std::fread(file.data(), 1, file.size(), f) != file.size()) {
    std::fclose(f);
    return Status::IOError("cannot read snapshot " + path);
  }
  std::fclose(f);

  if (file.size() < sizeof(OpimssHeader)) {
    return Status::InvalidArgument(
        path + ": truncated snapshot header (" + std::to_string(file.size()) +
        " of " + std::to_string(sizeof(OpimssHeader)) + " bytes)");
  }
  OpimssHeader h{};
  std::memcpy(&h, file.data(), sizeof(h));
  if (std::memcmp(h.magic, kOpimssMagic, sizeof(kOpimssMagic)) != 0) {
    return Status::InvalidArgument(path + ": bad snapshot magic");
  }
  if (h.version != kOpimssVersion) {
    return Status::InvalidArgument(
        path + ": unsupported snapshot version " + std::to_string(h.version) +
        " (supported: " + std::to_string(kOpimssVersion) + ")");
  }
  if (h.header_bytes != sizeof(OpimssHeader)) {
    return Status::InvalidArgument(path + ": snapshot header size mismatch");
  }
  if (h.flags != 0) {
    return Status::InvalidArgument(path + ": unsupported snapshot flags");
  }
  const uint64_t actual_payload = file.size() - sizeof(OpimssHeader);
  if (h.payload_bytes > actual_payload) {
    return Status::InvalidArgument(
        path + ": truncated snapshot payload (declares " +
        std::to_string(h.payload_bytes) + " bytes, " +
        std::to_string(actual_payload) + " present)");
  }
  if (h.payload_bytes < actual_payload) {
    return Status::InvalidArgument(
        path + ": snapshot has " +
        std::to_string(actual_payload - h.payload_bytes) + " trailing bytes");
  }
  const uint8_t* payload = file.data() + sizeof(OpimssHeader);
  const uint64_t got = OpimgChecksum(payload, h.payload_bytes);
  if (got != h.payload_checksum) {
    return Status::InvalidArgument(path +
                                   ": snapshot payload checksum mismatch");
  }

  PayloadCursor cur(path, {payload, static_cast<size_t>(h.payload_bytes)});
  SnapshotRunState run;
  OPIM_RETURN_NOT_OK(cur.Read(&run, sizeof(run), "run-state record"));
  OPIM_ASSIGN_OR_RETURN(RRCollection r1, LoadPool(path, &cur, "R1"));
  OPIM_ASSIGN_OR_RETURN(RRCollection r2, LoadPool(path, &cur, "R2"));
  if (cur.remaining() != 0) {
    return Status::InvalidArgument(
        path + ": snapshot payload has " + std::to_string(cur.remaining()) +
        " unconsumed bytes");
  }
  if (r1.num_nodes() != run.graph_nodes || r2.num_nodes() != run.graph_nodes) {
    return Status::InvalidArgument(
        path + ": snapshot pool node count disagrees with run state");
  }
  RRPoolSnapshot snap;
  snap.run = run;
  snap.r1 = std::move(r1);
  snap.r2 = std::move(r2);
  return snap;
}

}  // namespace opim
