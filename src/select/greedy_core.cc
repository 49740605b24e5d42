#include "select/greedy_core.h"

#include <algorithm>
#include <functional>

namespace opim {

uint64_t TopKSumOf(std::vector<uint64_t>* scratch, uint32_t k) {
  if (k == 0 || scratch->empty()) return 0;
  uint64_t total = 0;
  if (k >= scratch->size()) {
    for (uint64_t c : *scratch) total += c;
    return total;
  }
  std::nth_element(scratch->begin(), scratch->begin() + (k - 1),
                   scratch->end(), std::greater<uint64_t>());
  for (uint32_t i = 0; i < k; ++i) total += (*scratch)[i];
  return total;
}

uint64_t TopKSum(const std::vector<uint64_t>& counts, uint32_t k,
                 std::vector<uint64_t>* scratch) {
  if (k == 0 || counts.empty()) return 0;
  scratch->clear();
  for (uint64_t c : counts) {
    if (c > 0) scratch->push_back(c);
  }
  return TopKSumOf(scratch, k);
}

void FillWithUnselected(uint32_t n, uint32_t k,
                        const std::vector<char>& selected,
                        std::vector<NodeId>* seeds) {
  for (NodeId v = 0; v < n && seeds->size() < k; ++v) {
    if (!selected[v]) seeds->push_back(v);
  }
}

}  // namespace opim
