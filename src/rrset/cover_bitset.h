// Covered-RR-set state as a flat 64-bit-word bitset, plus the counting
// kernels CELF's marginal recount hot path runs over it.
//
// Postings for a node come in two representations (see rr_collection.h):
// raw ascending RR ids, or (word index, 64-bit mask) blocks for dense
// nodes. The kernels below answer "how many of this node's RR sets are
// still uncovered" — an intersection with the complement of the bitset
// followed by a popcount — in whole 64-bit words. Both have a portable
// scalar implementation and an AVX2 one (cover_kernels_avx2.cc, compiled
// only under the OPIM_SIMD CMake gate on x86-64); dispatch is resolved at
// runtime from cpuid and can be forced per process with
// SetCoverageSimdMode, which is how the differential tests pin the two
// paths bit-identical.

#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "support/macros.h"

namespace opim {

/// Index of an RR set within a collection (canonical alias; identical to
/// the one rr_collection.h declares).
using RRId = uint32_t;

/// Bitset over RR-set ids; bit i set means RR set i is covered. Each
/// CELF run sizes a fresh one for its pool: θ/8 bytes.
class CoverBitset {
 public:
  /// Sizes for `num_bits` ids and clears every bit.
  void Reset(uint64_t num_bits) {
    words_.assign((num_bits + 63) / 64, 0);
    num_bits_ = num_bits;
  }

  bool Test(uint64_t i) const {
    OPIM_DCHECK_LT(i, num_bits_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  void Set(uint64_t i) {
    OPIM_DCHECK_LT(i, num_bits_);
    words_[i >> 6] |= uint64_t{1} << (i & 63);
  }

  uint64_t* words() { return words_.data(); }
  const uint64_t* words() const { return words_.data(); }
  uint64_t num_words() const { return words_.size(); }
  uint64_t num_bits() const { return num_bits_; }

  uint64_t MemoryUsage() const {
    return words_.capacity() * sizeof(uint64_t);
  }

 private:
  std::vector<uint64_t> words_;
  uint64_t num_bits_ = 0;
};

/// Coverage-kernel selection. kAuto resolves from cpuid at first use;
/// kScalar/kAvx2 force a path (kAvx2 silently degrades to scalar when the
/// binary or CPU lacks AVX2 — check CoverageSimdAvailable()).
enum class SimdMode { kAuto, kScalar, kAvx2 };

/// Process-wide override, primarily for differential tests.
void SetCoverageSimdMode(SimdMode mode);

/// True iff the AVX2 path is compiled in and this CPU supports it.
bool CoverageSimdAvailable();

/// The resolved mode (never kAuto).
SimdMode EffectiveCoverageSimd();

/// "avx2" or "scalar" — what the counting kernels will actually run.
const char* ActiveCoverageKernelName();

/// Number of `ids` whose bit is clear in `words` (raw postings).
uint64_t CountUncoveredIds(std::span<const RRId> ids, const uint64_t* words);

/// Popcount of masks & ~words[block_words[i]] over all blocks.
uint64_t CountUncoveredBlocks(std::span<const uint32_t> block_words,
                              std::span<const uint64_t> block_masks,
                              const uint64_t* words);

/// Marks every id covered and calls `fn(RRId)` for each id that was not
/// already covered, in ascending order.
template <typename Fn>
inline void ForEachNewlyCoveredIds(std::span<const RRId> ids, uint64_t* words,
                                   Fn&& fn) {
  for (RRId id : ids) {
    uint64_t& w = words[id >> 6];
    const uint64_t bit = uint64_t{1} << (id & 63);
    if ((w & bit) == 0) {
      w |= bit;
      fn(id);
    }
  }
}

/// Block-rep variant of ForEachNewlyCoveredIds.
template <typename Fn>
inline void ForEachNewlyCoveredBlocks(std::span<const uint32_t> block_words,
                                      std::span<const uint64_t> block_masks,
                                      uint64_t* words, Fn&& fn) {
  for (size_t i = 0; i < block_words.size(); ++i) {
    const uint32_t wi = block_words[i];
    uint64_t fresh = block_masks[i] & ~words[wi];
    if (fresh == 0) continue;
    words[wi] |= fresh;
    const uint64_t base = uint64_t{wi} << 6;
    while (fresh != 0) {
      fn(static_cast<RRId>(base + std::countr_zero(fresh)));
      fresh &= fresh - 1;
    }
  }
}

}  // namespace opim
