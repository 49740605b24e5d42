// Greedy maximum-coverage seed selection over an RRCollection
// (Algorithm 1 of the paper), in two interchangeable implementations:
//
//  * SelectGreedy — the classic destructive cover-count greedy. Maintains
//    the marginal coverage Λ(v | S_i*) of every node while it selects, so
//    it can also capture the *greedy trace* that the improved bound of §5
//    consumes: Λ1(S_i*) and Σ_{v ∈ maxMC(S_i*, j)} Λ1(v | S_i*) for every
//    prefix i = 0..k (Eq. 10) and every traced seed-set size j, in
//    O(kn + Σ|R|) total. Kept as the reference oracle for
//    differential tests. It starts from the same Λ({v}) as CELF, each
//    node's posting-list length, which the index tests check against the
//    decoded sets.
//  * SelectGreedyCelf — CELF lazy-forward greedy (Leskovec et al. 2007),
//    the selection path of the two-pool engine and of every baseline.
//    Identical output to SelectGreedy (including tie-breaking and the
//    trace arrays; the differential tests in tests/select/ pin this). Its
//    initial gains are the collection's maintained member counts, read
//    one member-count band at a time (RRCollection::MemberAtLeast): the
//    heap starts from the highest band holding 4k nodes, whose threshold
//    T = 2^b bounds every other node's marginal from above, and the next
//    band down is admitted only when a pick or a prefix's top-k sum could
//    depend on it. So a pass costs its picks and the bands it reads, not
//    n. In trace mode it maintains exact marginals for the tracked nodes
//    like SelectGreedy but replaces the O(n) argmax scan with the lazy
//    queue and tracks a bucket histogram of those marginals, so each
//    prefix's top-j marginal sums are one walk down the histogram from
//    the current maximum — no n-sized copy or sort per pick.
//
// The trace is prefix-complete: greedy selection is prefix-consistent
// (the first j picks of a k-run ARE the j-run, tie-breaks included), so
// tracing the top-j marginal sums for a size j <= k makes one k-run
// answer Eq. (10) at j exactly as a fresh j-selection over the same pool
// would. The caller names those sizes before the selection.
//
// Both return seed sets of exactly min(k, n) nodes; once every RR set is
// covered, remaining slots are filled with the smallest-id unused nodes
// (zero marginal gain), keeping results deterministic.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rrset/rr_collection.h"

namespace opim {

/// Output of greedy selection, including the per-prefix trace used by the
/// Λ1ᵘ(S°) bound of Eq. (10). The trace fields are empty unless the
/// selector was given trace sizes; k below is the selection's size,
/// seeds.size().
struct GreedyResult {
  /// Selected seeds in selection order; size min(k, n).
  std::vector<NodeId> seeds;

  /// Final coverage Λ(S*) of the seed set in the collection.
  uint64_t coverage = 0;

  /// The traced seed-set sizes, ascending and distinct; k is the last.
  std::vector<uint32_t> trace_ks;

  /// coverage_at[i] = Λ(S_i*) for i = 0..k (coverage_at[0] == 0).
  std::vector<uint64_t> coverage_at;

  /// One column of k + 1 entries per traced size, in trace_ks order:
  /// entry i of size j's column is Σ_{v ∈ maxMC(S_i*, j)} Λ(v | S_i*),
  /// the sum of the j largest marginal gains after i picks. When k is the
  /// only traced size this is the Eq. (10) summand of every prefix.
  std::vector<uint64_t> topk_marginal_at;

  /// Size j's column (k + 1 entries); j must be traced.
  std::span<const uint64_t> TopMarginals(uint32_t j) const;
};

/// Destructive cover-count greedy. A non-empty `trace_ks` also fills the
/// trace for k and every listed size (each at most k; sizes above n are
/// clamped like k), adding O(kn) work per the paper's §5 analysis.
GreedyResult SelectGreedy(const RRCollection& collection, uint32_t k,
                          const std::vector<uint32_t>& trace_ks = {});

/// CELF lazy-forward greedy; identical output to SelectGreedy (seeds,
/// coverage and, for the same `trace_ks`, the trace), usually much
/// faster. This is the engine selection path. Starts from the
/// collection's CoveringCount() and MemberAtLeast() bands, so the
/// collection must be indexed. An empty `trace_ks` runs classic CELF on
/// stale gain bounds, which is what the baselines use.
GreedyResult SelectGreedyCelf(const RRCollection& collection, uint32_t k,
                              const std::vector<uint32_t>& trace_ks = {});

}  // namespace opim
