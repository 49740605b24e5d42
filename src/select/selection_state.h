// Persistent cross-iteration selection state for the OPIM-C doubling
// loop (and OnlineMaximizer's repeated queries).
//
// Every doubling re-runs CELF greedy over a pool that is a strict
// superset of the previous iteration's, yet the from-scratch path pays
// the full initial-gain pass — one CoveringCount per node, O(Σ|R|)
// posting mass — again each time. SelectionState makes that pass
// incremental: it tracks which prefix of a specific RRCollection its
// owner has already selected over, and on the next selection pulls the
// collection's per-node membership counts (RRCollection::MemberCounts —
// kept current by the same appends that write each node's postings,
// never re-decoding stored sets) as the exact initial gains. It also
// keeps the covered-RR-set bitset's word arena alive across selections,
// so each doubling extends and clears it instead of reallocating.
//
// The state is an execution accelerator only: SelectGreedyCelf with a
// state produces bit-identical output to the stateless path (the warm
// gains are exact, not approximate — see the validity argument in
// greedy_core.cc), and any failure to sync simply invalidates the state
// and falls back to the cold pass.

#pragma once

#include <cstdint>
#include <vector>

#include "rrset/cover_bitset.h"
#include "rrset/rr_collection.h"

namespace opim {

/// Reusable selection state bound to (at most) one RRCollection at a
/// time. Owned by TwoPoolEngine; not thread-safe.
class SelectionState {
 public:
  SelectionState() = default;

  /// Fills `*gains` with the exact initial marginal gains Λ({v}) for
  /// every node of `collection`, using the collection's incremental
  /// membership counts. Telemetry: counts a warm-start hit and the
  /// posting mass newly ingested since the last sync when `collection`
  /// is the one previously synced; a first sync (or a different
  /// collection, e.g. after --resume restored fresh pools) is the state
  /// rebuild, which fault site "select.state_rebuild_throw" can fail —
  /// the caller (AcquireInitialGains) then invalidates the state and
  /// recovers on the cold path. Throws std::runtime_error only from
  /// that site.
  void SyncGains(const RRCollection& collection, std::vector<uint64_t>* gains);

  /// The persistent covered-set bitset, extended to `num_bits` with every
  /// bit clear. The word arena is kept across calls — a doubling run
  /// grows it monotonically instead of reallocating per iteration.
  CoverBitset* PrepareCovered(uint64_t num_bits);

  /// Forgets the bound collection (the bitset arena is kept). The next
  /// SyncGains is a rebuild, not a warm hit.
  void Invalidate();

  /// True when the next SyncGains against `collection` would be a warm
  /// hit (same collection, already synced at least once).
  bool WarmFor(const RRCollection& collection) const {
    return collection_ == &collection && sets_accounted_ > 0;
  }

  /// Sets folded in by the last sync (0 after Invalidate).
  uint64_t sets_accounted() const { return sets_accounted_; }

 private:
  const RRCollection* collection_ = nullptr;  // identity only, never read
  uint64_t sets_accounted_ = 0;
  uint64_t mass_accounted_ = 0;
  CoverBitset covered_;
};

}  // namespace opim
