#include "select/greedy_core.h"

#include <algorithm>
#include <exception>
#include <functional>

#include "obs/log.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "select/selection_state.h"
#include "support/thread_pool.h"

namespace opim {

namespace {

/// Below this much total posting mass the parallel initial-gain pass
/// loses to fan-out overhead.
constexpr uint64_t kParallelInitMinWork = 1u << 16;

}  // namespace

void InitialGains(const RRCollection& collection, const CelfOptions& options,
                  std::vector<uint64_t>* gains) {
  OPIM_TR_SPAN1("celf_init", "select", "n", collection.num_nodes());
  OPIM_TM_SCOPED_TIMER("opim.select.celf_init_us");
  const uint32_t n = collection.num_nodes();
  gains->resize(n);
  ThreadPool* pool = options.pool;
  if (pool != nullptr && pool->num_threads() > 1 &&
      collection.total_size() >= kParallelInitMinWork) {
    const uint32_t ranges = std::min<uint32_t>(n, pool->num_threads() * 4);
    pool->ParallelFor(ranges, [&](uint64_t r) {
      const uint32_t lo = static_cast<uint32_t>(uint64_t{n} * r / ranges);
      const uint32_t hi =
          static_cast<uint32_t>(uint64_t{n} * (r + 1) / ranges);
      for (NodeId v = lo; v < hi; ++v) {
        (*gains)[v] = collection.CoveringCount(v);
      }
    });
  } else {
    for (NodeId v = 0; v < n; ++v) {
      (*gains)[v] = collection.CoveringCount(v);
    }
  }
  if (options.after_initial_gains) options.after_initial_gains();
}

// WARM-START VALIDITY. The pool is append-only, so iteration i's pool is
// iteration i-1's pool plus the new sets, and for every node v
//
//   Λ_i({v}) = Λ_{i-1}({v}) + d_v,
//
// where d_v is v's membership count among the NEW sets only. The synced
// counts are therefore the EXACT singleton coverages on the grown pool —
// not an approximation — because RRCollection::MemberCounts maintains
// Σ-membership per node exactly across ingests (the same appends that
// write a node's postings count them). Seeding CELF's heap with exact
// Λ_i({v}) is precisely what the cold pass does, so the heap contents,
// every pop, every tie-break, and hence the seed sequence and all trace
// arrays are bit-identical to a from-scratch run (the differential tests
// in tests/select pin this).
// Note the subtlety this design avoids: warm-starting from iteration
// i-1's FINAL marginals Λ_{i-1}(v | S*) — tempting, since they are
// smaller — would be unsound as CELF initial entries: a node's marginal
// against the previous run's seed set is not an upper bound on its
// marginal against this run's (different) prefix, and even corrected by
// d_v it would perturb pop order. Exact singleton gains cost the same
// O(n) and carry no such caveat.
void AcquireInitialGains(const RRCollection& collection,
                         const CelfOptions& options,
                         std::vector<uint64_t>* gains) {
  if (options.state != nullptr) {
    try {
      options.state->SyncGains(collection, gains);
      // Same schedule point as the cold pass (InitialGains fires it at
      // its end): the pipelined engine's speculative sampling launches
      // here, so the RR streams it produces are byte-identical no matter
      // which gain path ran.
      if (options.after_initial_gains) options.after_initial_gains();
      return;
    } catch (const std::exception& e) {
      options.state->Invalidate();
      OPIM_TM_COUNTER_ADD("opim.select.warm_start_fallbacks", 1);
      OPIM_LOG(kWarn) << "selection-state sync failed (" << e.what()
                      << "); falling back to from-scratch initial gains";
    }
  }
  InitialGains(collection, options, gains);
}

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
