#include "select/greedy.h"

#include <algorithm>
#include <queue>
#include <span>

#include "obs/telemetry.h"
#include "obs/trace.h"
#include "rrset/cover_bitset.h"
#include "select/greedy_core.h"
#include "select/seed_trace.h"

namespace opim {

GreedyResult SelectGreedy(const RRCollection& collection, uint32_t k,
                          bool with_trace) {
  OPIM_TR_SPAN2("greedy", "select", "theta", collection.num_sets(), "k", k);
  OPIM_TM_SCOPED_TIMER("opim.select.greedy_us");
  OPIM_TM_COUNTER_ADD("opim.select.greedy_runs", 1);
  const uint32_t n = collection.num_nodes();
  const uint32_t theta = collection.num_sets();
  k = std::min(k, n);

  GreedyResult result;
  result.seeds.reserve(k);

  // Λ(v | S_i*) for the current prefix, counted from the postings rather
  // than read from MemberCounts(), so the oracle stays independent of
  // the maintained counts CELF starts from.
  std::vector<uint64_t> counts(n);
  for (NodeId v = 0; v < n; ++v) counts[v] = collection.CoveringCount(v);
  CoverBitset covered;
  covered.Reset(theta);
  std::vector<char> selected(n, 0);
  std::vector<uint64_t> scratch;

  if (with_trace) {
    result.coverage_at.reserve(k + 1);
    result.topk_marginal_at.reserve(k + 1);
  }

  uint64_t coverage = 0;
  uint64_t cover_updates = 0;  // decrements applied to `counts`
  for (uint32_t i = 0; i < k; ++i) {
    if (with_trace) {
      result.coverage_at.push_back(coverage);
      result.topk_marginal_at.push_back(TopKSum(counts, k, &scratch));
    }

    // Argmax of marginal coverage under the shared ordering rule; the
    // counts[v] > 0 guard keeps zero-gain nodes out (they are appended
    // by FillWithUnselected below, not selected).
    NodeId best = kInvalidNode;
    uint64_t best_count = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (!selected[v] && counts[v] > 0 &&
          BetterCandidate(counts[v], v, best_count, best)) {
        best = v;
        best_count = counts[v];
      }
    }
    if (best == kInvalidNode) break;  // all RR sets covered

    selected[best] = 1;
    result.seeds.push_back(best);
    coverage += best_count;
    // Mark newly covered sets; every co-member loses one unit of marginal.
    MarkCoveredBy(collection, best, &covered, [&](RRId id) {
      collection.ForEachMember(id, [&](NodeId w) {
        ++cover_updates;
        --counts[w];
      });
    });
    OPIM_DCHECK_EQ(counts[best], 0u);
  }

  if (with_trace) {
    // Record the state after the final pick too (prefix i = |seeds|); pad
    // to k + 1 entries if selection stopped early (coverage saturated:
    // marginals are all zero from here on).
    result.coverage_at.push_back(coverage);
    result.topk_marginal_at.push_back(TopKSum(counts, k, &scratch));
    while (result.coverage_at.size() < static_cast<size_t>(k) + 1) {
      result.coverage_at.push_back(coverage);
      result.topk_marginal_at.push_back(0);
    }
  }

  OPIM_TM_COUNTER_ADD("opim.select.cover_updates", cover_updates);
  FillWithUnselected(n, k, selected, &result.seeds);
  result.coverage = coverage;
  return result;
}

GreedyResult SelectGreedyCelf(const RRCollection& collection, uint32_t k,
                              bool with_trace, SeedTrace* seed_trace) {
  OPIM_TR_SPAN2("celf", "select", "theta", collection.num_sets(), "k", k);
  OPIM_TM_SCOPED_TIMER("opim.select.celf_us");
  OPIM_TM_COUNTER_ADD("opim.select.celf_runs", 1);
  OPIM_TM_GAUGE_SET("opim.select.simd_dispatch",
                    EffectiveCoverageSimd() == SimdMode::kAvx2 ? 2 : 1);
  const uint32_t n = collection.num_nodes();
  const uint32_t theta = collection.num_sets();
  k = std::min(k, n);

  GreedyResult result;
  result.seeds.reserve(k);
  CoverBitset covered;
  covered.Reset(theta);
  std::vector<char> selected(n, 0);

  uint64_t coverage = 0;
  uint32_t round = 0;
  uint64_t pops = 0;
  uint64_t rescans = 0;
  uint64_t words_scanned = 0;  // bitset words the counting kernels touched

  // The initial marginal gains Λ({v}) are the collection's member
  // counts, which every append keeps exact, so a doubling run pays O(n)
  // for them instead of an O(Σ|R|) recount. Only the nodes some set
  // contains (MemberNonzero) can hold a positive gain, so the heap and
  // histogram builds below iterate those alone. Neither the order nor
  // the absent zero-gain nodes can change the output: the CELF
  // comparator is a strict total order, and a zero-gain entry is never
  // selected (the pop loop stops at gain 0, or the queue drains first).
  const std::span<const uint64_t> gains = collection.MemberCounts();
  const std::span<const NodeId> nonzero = collection.MemberNonzero();

  if (!with_trace) {
    // Classic CELF: no marginal bookkeeping at all — a stale entry's gain
    // is recomputed on demand by intersecting the node's postings with
    // the uncovered bitset (whole 64-bit words; AVX2 when dispatched).
    // Linear heap build (make_heap via the container ctor) instead of one
    // push per node; pop order — and therefore the seed set — only
    // depends on the comparator, not the heap's internal layout.
    std::vector<CelfEntry> entries;
    entries.reserve(nonzero.size());
    for (NodeId v : nonzero) entries.push_back({gains[v], v, 0});
    std::priority_queue<CelfEntry> queue(std::less<CelfEntry>{},
                                         std::move(entries));
    auto fresh_gain = [&](NodeId v) {
      const RRCollection::CoverPostings p = collection.Covering(v);
      words_scanned += p.ids.size() + p.words.size();
      return CountUncoveredIds(p.ids, covered.words()) +
             CountUncoveredBlocks(p.words, p.masks, covered.words());
    };
    while (result.seeds.size() < k && !queue.empty()) {
      CelfEntry top = queue.top();
      queue.pop();
      ++pops;
      if (selected[top.node]) continue;
      if (top.round != round) {
        // Stale: recompute (submodularity guarantees it only shrinks).
        top.gain = fresh_gain(top.node);
        top.round = round;
        queue.push(top);
        ++rescans;
        continue;
      }
      if (top.gain == 0) break;  // coverage saturated
      selected[top.node] = 1;
      result.seeds.push_back(top.node);
      coverage += top.gain;
      MarkCoveredBy(collection, top.node, &covered, [](RRId) {});
      ++round;
    }
    OPIM_TM_COUNTER_ADD("opim.select.celf_pops", pops);
    OPIM_TM_COUNTER_ADD("opim.select.celf_rescans", rescans);
    OPIM_TM_COUNTER_ADD("opim.select.words_scanned", words_scanned);
    FillWithUnselected(n, k, selected, &result.seeds);
    result.coverage = coverage;
    return result;
  }

  // Trace mode (what OPIM⁺'s Eq. (10) bound consumes): maintain the exact
  // marginals Λ(v | S_i*) like SelectGreedy — a stale queue entry then
  // refreshes with an O(1) lookup — plus a bucket histogram over the
  // marginal values. Every update is a decrement, so it moves one node
  // down one bucket in O(1), and each prefix's top-k marginal sum is a
  // walk down the histogram from the current maximum: the only sum the
  // bound needs is Σ value·|bucket| over the k largest entries, so no
  // per-pick O(n) scan, copy, or nth_element happens at all. When a
  // SeedTrace is attached, the same walk also writes the prefix's full
  // top-j sums (j = 1..k) into its matrix row — the per-prefix Eq. (10)
  // summands any later k' <= k query needs — at O(k) extra per prefix.
  if (seed_trace != nullptr) seed_trace->Begin(k);
  std::vector<uint64_t> counts(gains.begin(), gains.end());
  uint64_t max_count = 0;
  std::vector<CelfEntry> entries;  // heapified in one make_heap below
  entries.reserve(nonzero.size());
  for (NodeId v : nonzero) {
    const uint64_t g = counts[v];  // >= 1: membership never decreases
    entries.push_back({g, v, 0});
    max_count = std::max(max_count, g);
  }
  std::priority_queue<CelfEntry> queue(std::less<CelfEntry>{},
                                       std::move(entries));
  std::vector<uint32_t> hist(max_count + 1, 0);  // hist[c] = #nodes, c > 0
  for (NodeId v : nonzero) ++hist[counts[v]];
  uint64_t cover_updates = 0;

  auto record_prefix = [&] {
    const uint32_t prefix = static_cast<uint32_t>(result.coverage_at.size());
    result.coverage_at.push_back(coverage);
    if (seed_trace != nullptr) seed_trace->RecordCoverage(prefix, coverage);
    // The maximum only decreases (all updates are decrements), so the
    // cursor moves monotonically: O(initial max) total over the whole run.
    while (max_count > 0 && hist[max_count] == 0) --max_count;
    uint64_t* row =
        seed_trace != nullptr ? seed_trace->PrefixRow(prefix) : nullptr;
    uint64_t sum = 0;
    uint64_t taken = 0;
    for (uint64_t value = max_count; value > 0 && taken < k; --value) {
      const uint64_t take = std::min<uint64_t>(hist[value], k - taken);
      if (row != nullptr) {
        for (uint64_t t = 1; t <= take; ++t) row[taken + t] = sum + value * t;
      }
      sum += value * take;
      taken += take;
    }
    if (row != nullptr) {
      // Fewer than j nonzero marginals means the top-j sum is the total.
      for (uint64_t j = taken + 1; j <= k; ++j) row[j] = sum;
    }
    result.topk_marginal_at.push_back(sum);
  };

  result.coverage_at.reserve(k + 1);
  result.topk_marginal_at.reserve(k + 1);
  for (uint32_t i = 0; i < k; ++i) {
    record_prefix();

    NodeId best = kInvalidNode;
    uint64_t best_gain = 0;
    while (!queue.empty()) {
      CelfEntry top = queue.top();
      queue.pop();
      ++pops;
      if (selected[top.node]) continue;
      if (top.round != round) {
        top.gain = counts[top.node];
        top.round = round;
        ++rescans;
        if (top.gain > 0) queue.push(top);
        continue;
      }
      best = top.node;
      best_gain = top.gain;
      break;
    }
    if (best == kInvalidNode) break;  // all RR sets covered

    selected[best] = 1;
    result.seeds.push_back(best);
    coverage += best_gain;
    MarkCoveredBy(collection, best, &covered, [&](RRId id) {
      collection.ForEachMember(id, [&](NodeId w) {
        // w belongs to a set that was uncovered, so counts[w] >= 1 here.
        ++cover_updates;
        const uint64_t c = counts[w]--;
        --hist[c];
        if (c > 1) ++hist[c - 1];
      });
    });
    OPIM_DCHECK_EQ(counts[best], 0u);
    ++round;
  }
  record_prefix();
  while (result.coverage_at.size() < static_cast<size_t>(k) + 1) {
    if (seed_trace != nullptr) {
      seed_trace->RecordCoverage(
          static_cast<uint32_t>(result.coverage_at.size()), coverage);
    }
    result.coverage_at.push_back(coverage);
    result.topk_marginal_at.push_back(0);
  }

  OPIM_TM_COUNTER_ADD("opim.select.celf_pops", pops);
  OPIM_TM_COUNTER_ADD("opim.select.celf_rescans", rescans);
  OPIM_TM_COUNTER_ADD("opim.select.cover_updates", cover_updates);
  OPIM_TM_COUNTER_ADD("opim.select.words_scanned", words_scanned);
  FillWithUnselected(n, k, selected, &result.seeds);
  result.coverage = coverage;
  if (seed_trace != nullptr) seed_trace->RecordSeeds(result.seeds);
  return result;
}

}  // namespace opim
