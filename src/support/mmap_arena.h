// Memory-mapped arenas for the storage tier.
//
// An MmapArena owns one contiguous mapping: a read-only
// file-backed mapping (MapFile — the `.opimg` fast load path, where
// "loading" a graph is a page-table operation and the kernel faults
// pages in on first touch). The arena hands out raw byte views; callers
// bind typed spans over AlignUp-aligned sections.
//
// Advise() forwards access-pattern hints to madvise(2). Hints are
// best-effort by design: a kernel that rejects them changes
// performance, never correctness, so Advise never fails.
//
// Fault-injection site (build-fi only, see fault_inject.h):
//   io.mmap_fail  evaluated once per MapFile; firing makes the map
//                 fail with an IOError before mmap(2) is attempted,
//                 pinning the caller's graceful heap-fallback path.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "support/macros.h"
#include "support/status.h"

namespace opim {

/// Owns one read-only file-backed mmap(2) region and unmaps it on
/// destruction. Shared via shared_ptr so graphs and views copied from a
/// mapped source keep the pages alive.
class MmapArena {
 public:
  /// Section alignment for multi-array payloads carved out of one
  /// arena. 64 bytes = one cache line, and a multiple of every scalar
  /// type the storage tier stores.
  static constexpr size_t kAlignment = 64;

  /// Rounds `n` up to the next kAlignment boundary.
  static constexpr uint64_t AlignUp(uint64_t n) {
    return (n + kAlignment - 1) & ~uint64_t{kAlignment - 1};
  }

  /// Access-pattern hints for Advise(); mapped to madvise(2) flags.
  enum class Advice {
    kNormal,      // MADV_NORMAL
    kSequential,  // MADV_SEQUENTIAL — checksum scans, whole-file reads
    kRandom,      // MADV_RANDOM — CSR adjacency walks
    kWillNeed,    // MADV_WILLNEED — prefetch before first use
  };

  /// Maps `path` read-only in its entirety. Fails with IOError when the
  /// file cannot be opened, stat'd, or mapped (including the armed
  /// io.mmap_fail site). An empty file maps to a valid zero-length
  /// arena. The initial `advice` is applied to the whole mapping.
  static Result<std::shared_ptr<MmapArena>> MapFile(
      const std::string& path, Advice advice = Advice::kNormal);

  ~MmapArena();
  OPIM_DISALLOW_COPY(MmapArena);

  const uint8_t* data() const { return data_; }
  uint64_t size() const { return size_; }

  bool file_backed() const { return file_backed_; }

  /// Best-effort madvise over [offset, offset+length). Out-of-range or
  /// kernel-rejected hints are ignored — hints never affect
  /// correctness.
  void Advise(uint64_t offset, uint64_t length, Advice advice) const;

 private:
  MmapArena(uint8_t* data, uint64_t size, bool file_backed)
      : data_(data), size_(size), file_backed_(file_backed) {}

  uint8_t* data_ = nullptr;
  uint64_t size_ = 0;
  bool file_backed_ = false;
};

}  // namespace opim
