// Greedy maximum-coverage seed selection over an RRCollection
// (Algorithm 1 of the paper), in two interchangeable implementations:
//
//  * SelectGreedy — the classic destructive cover-count greedy. Maintains
//    the marginal coverage Λ(v | S_i*) of every node while it selects, so
//    it can also capture the *greedy trace* that the improved bound of §5
//    consumes: Λ1(S_i*) and Σ_{v ∈ maxMC(S_i*, k)} Λ1(v | S_i*) for every
//    prefix i = 0..k (Eq. 10), in O(kn + Σ|R|) total. Kept as the
//    reference oracle for differential tests.
//  * SelectGreedyCelf — CELF lazy-forward greedy (Leskovec et al. 2007),
//    the selection path of the two-pool engine and of every baseline. Identical output to SelectGreedy
//    (including tie-breaking and the trace arrays; the differential test
//    in tests/select/ pins this). In trace mode it maintains exact
//    marginals like SelectGreedy but replaces the O(n) argmax scan with
//    the lazy queue and tracks a bucket histogram of the marginal values,
//    so each prefix's top-k marginal sum is a walk down the histogram
//    from the current maximum — no n-sized copy or sort per pick.
//
// Both return seed sets of exactly min(k, n) nodes; once every RR set is
// covered, remaining slots are filled with the smallest-id unused nodes
// (zero marginal gain), keeping results deterministic.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "rrset/rr_collection.h"

namespace opim {

class SeedTrace;
class SelectionState;
class ThreadPool;

/// Output of greedy selection, including the per-prefix trace used by the
/// Λ1ᵘ(S°) bound of Eq. (10).
struct GreedyResult {
  /// Selected seeds in selection order; size min(k, n).
  std::vector<NodeId> seeds;

  /// Final coverage Λ(S*) of the seed set in the collection.
  uint64_t coverage = 0;

  /// coverage_at[i] = Λ(S_i*) for i = 0..k (coverage_at[0] == 0).
  /// Empty unless the trace was requested.
  std::vector<uint64_t> coverage_at;

  /// topk_marginal_at[i] = Σ_{v ∈ maxMC(S_i*, k)} Λ(v | S_i*) for i = 0..k.
  /// Empty unless the trace was requested.
  std::vector<uint64_t> topk_marginal_at;
};

/// Destructive cover-count greedy. If `with_trace`, also fills coverage_at
/// and topk_marginal_at (adds O(kn) work, per the paper's §5 analysis).
GreedyResult SelectGreedy(const RRCollection& collection, uint32_t k,
                          bool with_trace = false);

/// Execution options for SelectGreedyCelf. None changes any output bit:
/// `pool` only parallelizes the initial marginal-gain pass (one
/// CoveringCount per node — the dominant CELF cost at large n) over node
/// ranges; every recount stays serial. `after_initial_gains`, when set,
/// runs on the calling thread right after that pass — the last pool use —
/// and before the serial heap phase: the pipelined engine uses it to
/// launch speculative sampling that overlaps the rest of selection.
/// `state`, when set, replaces the initial-gain pass with the persistent
/// SelectionState's incremental sync (select/selection_state.h) — exact
/// gains, bit-identical output, warm across doublings; a failed sync
/// falls back to the cold pass transparently. `seed_trace`, when set
/// together with `with_trace`, additionally records the prefix-complete
/// trace (select/seed_trace.h) that answers k' <= k queries without
/// re-selection.
struct CelfOptions {
  ThreadPool* pool = nullptr;
  std::function<void()> after_initial_gains;
  SelectionState* state = nullptr;
  SeedTrace* seed_trace = nullptr;
};

/// CELF lazy-forward greedy; identical output to SelectGreedy (seeds,
/// coverage, and — with `with_trace` — the trace arrays), usually much
/// faster. This is the engine selection path.
GreedyResult SelectGreedyCelf(const RRCollection& collection, uint32_t k,
                              bool with_trace = false,
                              const CelfOptions& options = {});

}  // namespace opim
