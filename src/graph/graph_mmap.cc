#include "graph/graph_mmap.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <vector>

#include "support/mmap_arena.h"

namespace opim {

namespace {

constexpr char kOpimgMagic[8] = {'O', 'P', 'I', 'M', 'G', '\0', 'v', '1'};
constexpr uint32_t kOpimgVersion = 1;

#pragma pack(push, 1)
struct OpimgHeader {
  char magic[8];
  uint32_t version;
  uint32_t header_bytes;
  uint32_t num_nodes;
  uint32_t flags;
  uint64_t num_edges;
  uint64_t payload_bytes;
  uint64_t payload_checksum;
  uint64_t reserved[2];
};
#pragma pack(pop)
static_assert(sizeof(OpimgHeader) == 64, ".opimg header must be 64 bytes");

/// Byte offsets (relative to the payload base) and total size of the
/// seven aligned sections for a graph with n nodes and m edges.
struct SectionLayout {
  uint64_t out_offsets;
  uint64_t out_neighbors;
  uint64_t out_probs;
  uint64_t in_offsets;
  uint64_t in_neighbors;
  uint64_t in_probs;
  uint64_t in_weight_sum;
  uint64_t total;
};

SectionLayout LayoutFor(uint64_t n, uint64_t m) {
  SectionLayout s;
  uint64_t pos = 0;
  auto place = [&pos](uint64_t bytes) {
    uint64_t at = pos;
    pos = MmapArena::AlignUp(pos + bytes);
    return at;
  };
  s.out_offsets = place((n + 1) * sizeof(uint64_t));
  s.out_neighbors = place(m * sizeof(NodeId));
  s.out_probs = place(m * sizeof(double));
  s.in_offsets = place((n + 1) * sizeof(uint64_t));
  s.in_neighbors = place(m * sizeof(NodeId));
  s.in_probs = place(m * sizeof(double));
  s.in_weight_sum = place(n * sizeof(double));
  s.total = pos;
  return s;
}

/// Validates the CSR invariants over the decoded sections. Shared by
/// the mapped and heap paths so both reject identical corruption with
/// identical messages.
Status ValidateStructure(const std::string& path, uint32_t n, uint64_t m,
                         const GraphStorageView& v) {
  auto check_offsets = [&](std::span<const uint64_t> off, const char* dir) {
    if (off[0] != 0 || off[n] != m) {
      return Status::InvalidArgument(
          path + ": corrupt " + dir + " offsets (do not span [0, " +
          std::to_string(m) + "])");
    }
    for (uint32_t i = 0; i < n; ++i) {
      if (off[i] > off[i + 1]) {
        return Status::InvalidArgument(path + ": corrupt " + dir +
                                       " offsets (not monotone at node " +
                                       std::to_string(i) + ")");
      }
    }
    return Status::OK();
  };
  OPIM_RETURN_NOT_OK(check_offsets(v.out_offsets, "out"));
  OPIM_RETURN_NOT_OK(check_offsets(v.in_offsets, "in"));
  auto check_edges = [&](std::span<const NodeId> nbr,
                         std::span<const double> prob, const char* dir) {
    for (uint64_t e = 0; e < m; ++e) {
      if (nbr[e] >= n) {
        return Status::InvalidArgument(
            path + ": " + dir + " neighbor id " + std::to_string(nbr[e]) +
            " out of range at edge " + std::to_string(e));
      }
      if (!(prob[e] >= 0.0 && prob[e] <= 1.0)) {
        return Status::InvalidArgument(path + ": " + dir +
                                       " probability out of [0, 1] at edge " +
                                       std::to_string(e));
      }
    }
    return Status::OK();
  };
  OPIM_RETURN_NOT_OK(check_edges(v.out_neighbors, v.out_probs, "out"));
  OPIM_RETURN_NOT_OK(check_edges(v.in_neighbors, v.in_probs, "in"));
  for (uint32_t u = 0; u < n; ++u) {
    if (!(std::isfinite(v.in_weight_sum[u]) && v.in_weight_sum[u] >= 0.0)) {
      return Status::InvalidArgument(
          path + ": in-weight sum not finite and >= 0 at node " +
          std::to_string(u));
    }
  }
  return Status::OK();
}

/// Binds the seven section spans over a contiguous payload.
GraphStorageView ViewOver(const uint8_t* payload, uint32_t n, uint64_t m,
                          const SectionLayout& s) {
  GraphStorageView v;
  v.out_offsets = {
      reinterpret_cast<const uint64_t*>(payload + s.out_offsets), n + 1};
  v.out_neighbors = {
      reinterpret_cast<const NodeId*>(payload + s.out_neighbors), m};
  v.out_probs = {reinterpret_cast<const double*>(payload + s.out_probs), m};
  v.in_offsets = {
      reinterpret_cast<const uint64_t*>(payload + s.in_offsets), n + 1};
  v.in_neighbors = {
      reinterpret_cast<const NodeId*>(payload + s.in_neighbors), m};
  v.in_probs = {reinterpret_cast<const double*>(payload + s.in_probs), m};
  v.in_weight_sum = {
      reinterpret_cast<const double*>(payload + s.in_weight_sum), n};
  return v;
}

Status ValidateHeader(const std::string& path, const OpimgHeader& h,
                      uint64_t file_size) {
  if (std::memcmp(h.magic, kOpimgMagic, sizeof(kOpimgMagic)) != 0) {
    return Status::InvalidArgument(path + ": not an OPIMG file (bad magic)");
  }
  if (h.version != kOpimgVersion) {
    return Status::InvalidArgument(
        path + ": unsupported OPIMG version " + std::to_string(h.version) +
        " (this build reads version " + std::to_string(kOpimgVersion) + ")");
  }
  if (h.header_bytes != sizeof(OpimgHeader) || h.flags != 0 ||
      h.reserved[0] != 0 || h.reserved[1] != 0) {
    return Status::InvalidArgument(path +
                                   ": corrupt OPIMG header "
                                   "(unexpected header size or flags)");
  }
  // Larger edge counts overflow the 64-bit section sizes and can wrap
  // to a plausible payload size.
  if (h.num_edges > UINT64_MAX / 32) {
    return Status::InvalidArgument(path +
                                   ": corrupt OPIMG header (edge count " +
                                   std::to_string(h.num_edges) + " too large)");
  }
  const SectionLayout layout = LayoutFor(h.num_nodes, h.num_edges);
  if (h.payload_bytes != layout.total) {
    return Status::InvalidArgument(
        path + ": payload size mismatch (header claims " +
        std::to_string(h.payload_bytes) + " bytes, " +
        std::to_string(h.num_nodes) + " nodes / " +
        std::to_string(h.num_edges) + " edges need " +
        std::to_string(layout.total) + ")");
  }
  if (file_size < sizeof(OpimgHeader) + h.payload_bytes) {
    return Status::InvalidArgument(
        path + ": truncated payload (header claims " +
        std::to_string(h.payload_bytes) + " bytes, file has " +
        std::to_string(file_size - sizeof(OpimgHeader)) + ")");
  }
  return Status::OK();
}

}  // namespace

uint64_t OpimgChecksum(const void* data, uint64_t size) {
  // FNV-1a with 8-byte steps: same constants as the byte-wise variant,
  // but folding a whole word per multiply so the checksum scan keeps up
  // with the page-in rate instead of bottlenecking the 20x load win.
  constexpr uint64_t kOffset = 1469598103934665603ULL;
  constexpr uint64_t kPrime = 1099511628211ULL;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = kOffset ^ size;
  uint64_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t word;
    std::memcpy(&word, p + i, 8);
    h = (h ^ word) * kPrime;
  }
  if (i < size) {
    uint64_t word = 0;
    std::memcpy(&word, p + i, size - i);
    h = (h ^ word) * kPrime;
  }
  return h;
}

Status SaveOpimg(const Graph& g, const std::string& path) {
  const uint32_t n = g.num_nodes();
  const uint64_t m = g.num_edges();
  const SectionLayout layout = LayoutFor(n, m);
  const GraphStorageView v = g.storage_view();

  // Assemble the payload in memory so the checksum covers exactly the
  // bytes written (including the zeroed alignment gaps).
  std::vector<uint8_t> payload(layout.total, 0);
  auto put = [&payload](uint64_t at, const void* src, uint64_t bytes) {
    if (bytes > 0) std::memcpy(payload.data() + at, src, bytes);
  };
  put(layout.out_offsets, v.out_offsets.data(),
      v.out_offsets.size_bytes());
  put(layout.out_neighbors, v.out_neighbors.data(),
      v.out_neighbors.size_bytes());
  put(layout.out_probs, v.out_probs.data(), v.out_probs.size_bytes());
  put(layout.in_offsets, v.in_offsets.data(), v.in_offsets.size_bytes());
  put(layout.in_neighbors, v.in_neighbors.data(),
      v.in_neighbors.size_bytes());
  put(layout.in_probs, v.in_probs.data(), v.in_probs.size_bytes());
  put(layout.in_weight_sum, v.in_weight_sum.data(),
      v.in_weight_sum.size_bytes());

  OpimgHeader h;
  std::memset(&h, 0, sizeof(h));
  std::memcpy(h.magic, kOpimgMagic, sizeof(kOpimgMagic));
  h.version = kOpimgVersion;
  h.header_bytes = sizeof(OpimgHeader);
  h.num_nodes = n;
  h.num_edges = m;
  h.payload_bytes = layout.total;
  h.payload_checksum = OpimgChecksum(payload.data(), payload.size());

  std::ofstream f(path, std::ios::binary);
  if (!f.is_open()) {
    return Status::IOError("cannot open for writing: " + path);
  }
  f.write(reinterpret_cast<const char*>(&h), sizeof(h));
  f.write(reinterpret_cast<const char*>(payload.data()),
          static_cast<std::streamsize>(payload.size()));
  f.close();
  if (!f.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<Graph> LoadOpimg(const std::string& path,
                        const OpimgLoadOptions& options) {
  std::shared_ptr<MmapArena> arena;
  if (!options.force_heap) {
    auto mapped = MmapArena::MapFile(path, MmapArena::Advice::kRandom);
    if (mapped.ok()) arena = std::move(mapped).ValueOrDie();
    // Mapping failure (ENODEV filesystems, injected io.mmap_fail, ...)
    // degrades to the heap read below — same bytes, same validation.
  }
  std::vector<uint8_t> heap_bytes;
  const uint8_t* base = nullptr;
  uint64_t file_size = 0;
  if (arena != nullptr) {
    base = arena->data();
    file_size = arena->size();
  } else {
    std::ifstream f(path, std::ios::binary | std::ios::ate);
    if (!f.is_open()) return Status::IOError("cannot open " + path);
    file_size = static_cast<uint64_t>(f.tellg());
    f.seekg(0);
    heap_bytes.resize(file_size);
    f.read(reinterpret_cast<char*>(heap_bytes.data()),
           static_cast<std::streamsize>(file_size));
    if (f.gcount() != static_cast<std::streamsize>(file_size)) {
      return Status::IOError("read failed: " + path);
    }
    base = heap_bytes.data();
  }

  if (file_size < sizeof(OpimgHeader)) {
    return Status::InvalidArgument(
        path + ": truncated OPIMG header (" + std::to_string(file_size) +
        " of " + std::to_string(sizeof(OpimgHeader)) + " bytes)");
  }
  OpimgHeader h;
  std::memcpy(&h, base, sizeof(h));
  OPIM_RETURN_NOT_OK(ValidateHeader(path, h, file_size));

  const uint8_t* payload = base + sizeof(OpimgHeader);
  if (options.verify_checksum) {
    if (arena != nullptr) {
      arena->Advise(sizeof(OpimgHeader), h.payload_bytes,
                    MmapArena::Advice::kSequential);
    }
    const uint64_t got = OpimgChecksum(payload, h.payload_bytes);
    if (got != h.payload_checksum) {
      return Status::InvalidArgument(
          path + ": payload checksum mismatch (file corrupt?)");
    }
    if (arena != nullptr) {
      arena->Advise(sizeof(OpimgHeader), h.payload_bytes,
                    MmapArena::Advice::kRandom);
    }
  }

  const SectionLayout layout = LayoutFor(h.num_nodes, h.num_edges);
  const GraphStorageView v =
      ViewOver(payload, h.num_nodes, h.num_edges, layout);
  if (options.validate_structure) {
    OPIM_RETURN_NOT_OK(ValidateStructure(path, h.num_nodes, h.num_edges, v));
  }

  if (arena != nullptr) {
    return Graph::WrapStorage(h.num_nodes, v, std::move(arena));
  }
  // Heap fallback: copy the sections out of the read buffer into owned
  // vectors so the Graph is self-contained.
  return Graph::AdoptStorage(
      h.num_nodes,
      {v.out_offsets.begin(), v.out_offsets.end()},
      {v.out_neighbors.begin(), v.out_neighbors.end()},
      {v.out_probs.begin(), v.out_probs.end()},
      {v.in_offsets.begin(), v.in_offsets.end()},
      {v.in_neighbors.begin(), v.in_neighbors.end()},
      {v.in_probs.begin(), v.in_probs.end()},
      {v.in_weight_sum.begin(), v.in_weight_sum.end()});
}

}  // namespace opim
