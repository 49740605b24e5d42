#include "rrset/cover_bitset.h"

namespace opim {

const char* ActiveCoverageKernelName() { return "scalar"; }

uint64_t CountUncoveredIds(std::span<const RRId> ids, const uint64_t* words) {
  uint64_t uncovered = 0;
  for (RRId id : ids) {
    uncovered += ((words[id >> 6] >> (id & 63)) & 1u) ^ 1u;
  }
  return uncovered;
}

}  // namespace opim
