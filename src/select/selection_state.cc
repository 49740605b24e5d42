#include "select/selection_state.h"

#include <stdexcept>

#include "obs/telemetry.h"
#include "obs/trace.h"
#include "support/fault_inject.h"

namespace opim {

void SelectionState::SyncGains(const RRCollection& collection,
                               std::vector<uint64_t>* gains) {
  OPIM_TM_SCOPED_TIMER("opim.select.warm_sync_us");
  OPIM_TR_SPAN2("warm_sync", "select", "theta", collection.num_sets(), "warm",
                WarmFor(collection) ? 1 : 0);
  const bool warm = WarmFor(collection);
  if (!warm && OPIM_FAULT_POINT("select.state_rebuild_throw")) {
    throw std::runtime_error(
        "injected fault: selection-state rebuild failure "
        "(select.state_rebuild_throw)");
  }
  if (warm) {
    OPIM_TM_COUNTER_ADD("opim.select.warm_start_hits", 1);
    OPIM_TM_COUNTER_ADD("opim.select.postings_delta_ingested",
                        collection.total_size() - mass_accounted_);
  }
  // The counts are exact memberships (sets are de-duplicated at encode
  // time), so this is the same vector the cold CoveringCount pass would
  // produce — just obtained in O(n) instead of O(Σ|R|) every iteration.
  const std::span<const uint64_t> counts = collection.MemberCounts();
  gains->assign(counts.begin(), counts.end());
  collection_ = &collection;
  sets_accounted_ = collection.num_sets();
  mass_accounted_ = collection.total_size();
}

CoverBitset* SelectionState::PrepareCovered(uint64_t num_bits) {
  if (num_bits < covered_.num_bits()) {
    // A smaller pool means a different collection (pools only grow);
    // Reset still reuses the arena's capacity.
    covered_.Reset(num_bits);
  } else {
    covered_.Extend(num_bits);
    covered_.ClearAll();
  }
  return &covered_;
}

void SelectionState::Invalidate() {
  collection_ = nullptr;
  sets_accounted_ = 0;
  mass_accounted_ = 0;
}

}  // namespace opim
