// Covered-RR-set state as a flat 64-bit-word bitset, plus the two scalar
// kernels selection runs over it with a node's posting list (its
// ascending RR ids; see rr_collection.h): how many of the list's sets are
// still uncovered (CELF's marginal recount), and which of them a pick
// newly covers.

#pragma once

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

/// Names the coverage kernel for run fingerprints: always "scalar".
const char* ActiveCoverageKernelName();

/// Number of `ids` whose bit is clear in `words`.
uint64_t CountUncoveredIds(std::span<const RRId> ids, const uint64_t* words);

/// Marks every id covered and calls `fn(RRId)` for each id that was not
/// already covered, in `ids` order.
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

}  // namespace opim
