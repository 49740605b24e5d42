#include "select/greedy.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <span>
#include <vector>

#include "obs/telemetry.h"
#include "obs/trace.h"
#include "rrset/cover_bitset.h"
#include "support/macros.h"

namespace opim {

namespace {

/// A CELF pass starts from the highest member-count band that holds at
/// least this many nodes per seed (see SelectGreedyCelf).
constexpr uint64_t kCandidatesPerSeed = 4;

// SelectGreedy (the differential oracle) and SelectGreedyCelf must agree
// on every output bit — seeds, tie-breaks, trace arrays — so both use the
// pieces below: the candidate ordering, the traced sizes, the saturation
// fill and the covered-bitset marking walk.

/// The one candidate-ordering rule both selectors share: a candidate
/// (gain, node) beats the incumbent (best_gain, best_node) iff its gain
/// is strictly larger, or equal with a smaller node id. Smallest id wins
/// ties so CELF's pop order matches SelectGreedy's ascending argmax scan
/// exactly.
bool BetterCandidate(uint64_t gain, NodeId node, uint64_t best_gain,
                     NodeId best_node) {
  if (gain != best_gain) return gain > best_gain;
  return node < best_node;
}

/// Lazy-forward queue entry: a (possibly stale) upper bound on a node's
/// marginal gain. The heap comparator is BetterCandidate, so the queue
/// pops candidates in exactly the oracle's argmax order.
struct CelfEntry {
  uint64_t gain;
  NodeId node;
  uint32_t round;  // selection round the gain was computed in
  bool operator<(const CelfEntry& other) const {
    return BetterCandidate(other.gain, other.node, gain, node);
  }
};

/// The Eq. (10) summands of one prefix: for each size sizes[c]
/// (ascending), the sum of that many largest values in `counts`, written
/// to out[c * stride]. Copies only the nonzero entries into `scratch`,
/// moves the largest max(sizes) of them to the front, and sorts that
/// front only when several sizes read its order.
void TopSums(const std::vector<uint64_t>& counts,
             const std::vector<uint32_t>& sizes,
             std::vector<uint64_t>* scratch, uint64_t* out, size_t stride) {
  scratch->clear();
  for (uint64_t c : counts) {
    if (c > 0) scratch->push_back(c);
  }
  const size_t top = std::min<size_t>(sizes.back(), scratch->size());
  const auto front = scratch->begin() + top;
  if (top > 0 && top < scratch->size()) {
    std::nth_element(scratch->begin(), front - 1, scratch->end(),
                     std::greater<uint64_t>());
  }
  if (sizes.size() > 1) {
    std::sort(scratch->begin(), front, std::greater<uint64_t>());
  }
  uint64_t sum = 0;
  size_t taken = 0;
  for (size_t c = 0; c < sizes.size(); ++c) {
    for (; taken < std::min<size_t>(sizes[c], top); ++taken) {
      sum += (*scratch)[taken];
    }
    out[c * stride] = sum;
  }
}

/// The sizes a trace records: each of `trace_ks` (checked <= the
/// requested k, then clamped to n like k) and the selection's k itself,
/// ascending and distinct. Empty when `trace_ks` is: no trace.
std::vector<uint32_t> TraceSizes(const std::vector<uint32_t>& trace_ks,
                                 uint32_t k, uint32_t n) {
  if (trace_ks.empty()) return {};
  std::vector<uint32_t> sizes;
  sizes.reserve(trace_ks.size() + 1);
  for (uint32_t j : trace_ks) {
    OPIM_CHECK_LE(j, k);
    sizes.push_back(std::min(j, n));
  }
  sizes.push_back(std::min(k, n));
  std::ranges::sort(sizes);
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  return sizes;
}

/// Appends the smallest-id nodes not yet selected until `seeds` has k
/// entries (used when coverage saturates before k picks).
void FillWithUnselected(uint32_t n, uint32_t k,
                        const std::vector<char>& selected,
                        std::vector<NodeId>* seeds) {
  for (NodeId v = 0; v < n && seeds->size() < k; ++v) {
    if (!selected[v]) seeds->push_back(v);
  }
}

/// Marks every RR set containing `v` covered and calls `fn(RRId)` once
/// for each set that was not already covered, in ascending id order.
template <typename Fn>
void MarkCoveredBy(const RRCollection& collection, NodeId v,
                   CoverBitset* covered, Fn&& fn) {
  ForEachNewlyCoveredIds(collection.Covering(v), covered->words(), fn);
}

}  // namespace

std::span<const uint64_t> GreedyResult::TopMarginals(uint32_t j) const {
  const auto it = std::ranges::find(trace_ks, j);
  OPIM_CHECK_MSG(it != trace_ks.end(), "seed-set size was not traced");
  const size_t stride = coverage_at.size();
  return std::span<const uint64_t>(topk_marginal_at)
      .subspan((it - trace_ks.begin()) * stride, stride);
}

GreedyResult SelectGreedy(const RRCollection& collection, uint32_t k,
                          const std::vector<uint32_t>& trace_ks) {
  OPIM_TR_SPAN2("greedy", "select", "theta", collection.num_sets(), "k", k);
  OPIM_TM_SCOPED_TIMER("opim.select.greedy_us");
  OPIM_TM_COUNTER_ADD("opim.select.greedy_runs", 1);
  const uint32_t n = collection.num_nodes();
  const uint32_t theta = collection.num_sets();
  GreedyResult result;
  result.trace_ks = TraceSizes(trace_ks, k, n);
  k = std::min(k, n);
  result.seeds.reserve(k);

  // Λ(v | S_i*) for the current prefix, starting from each node's
  // posting-list length: the same Λ({v}) CELF starts from, which the
  // index tests check against the decoded sets (tests/rrset).
  std::vector<uint64_t> counts(n);
  for (NodeId v = 0; v < n; ++v) counts[v] = collection.CoveringCount(v);
  CoverBitset covered;
  covered.Reset(theta);
  std::vector<char> selected(n, 0);
  std::vector<uint64_t> scratch;

  // Column c of the trace holds size trace_ks[c]; entries past the last
  // real pick stay 0 (coverage saturated: every marginal is zero).
  const bool traced = !result.trace_ks.empty();
  const size_t stride = size_t{k} + 1;
  result.topk_marginal_at.assign(result.trace_ks.size() * stride, 0);
  if (traced) result.coverage_at.reserve(stride);
  uint64_t coverage = 0;
  auto record_prefix = [&] {
    uint64_t* const column =
        result.topk_marginal_at.data() + result.coverage_at.size();
    result.coverage_at.push_back(coverage);
    TopSums(counts, result.trace_ks, &scratch, column, stride);
  };

  uint64_t cover_updates = 0;  // decrements applied to `counts`
  for (uint32_t i = 0; i < k; ++i) {
    if (traced) record_prefix();

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

  if (traced) {
    // Record the state after the final pick too (prefix i = |seeds|); pad
    // to k + 1 prefixes if selection stopped early.
    record_prefix();
    result.coverage_at.resize(stride, coverage);
  }

  OPIM_TM_COUNTER_ADD("opim.select.cover_updates", cover_updates);
  FillWithUnselected(n, k, selected, &result.seeds);
  result.coverage = coverage;
  return result;
}

GreedyResult SelectGreedyCelf(const RRCollection& collection, uint32_t k,
                              const std::vector<uint32_t>& trace_ks) {
  OPIM_TR_SPAN2("celf", "select", "theta", collection.num_sets(), "k", k);
  OPIM_TM_SCOPED_TIMER("opim.select.celf_us");
  OPIM_TM_COUNTER_ADD("opim.select.celf_runs", 1);
  const uint32_t n = collection.num_nodes();
  const uint32_t theta = collection.num_sets();
  GreedyResult result;
  result.trace_ks = TraceSizes(trace_ks, k, n);
  k = std::min(k, n);
  result.seeds.reserve(k);
  CoverBitset covered;
  covered.Reset(theta);
  std::vector<char> selected(n, 0);

  uint64_t coverage = 0;
  uint32_t round = 0;
  uint64_t pops = 0;
  uint64_t rescans = 0;
  uint64_t admissions = 0;     // bands admitted below the starting one
  uint64_t words_scanned = 0;  // posting ids the counting kernel reads
  uint64_t cover_updates = 0;  // marginal decrements (trace mode)

  // The initial marginal gains Λ({v}) are the nodes' posting-list
  // lengths, which every append keeps exact, so a doubling run pays
  // nothing to recount them. The pass reads them band by band
  // (RRCollection::MemberAtLeast), never all n: it starts from the
  // highest band b holding kCandidatesPerSeed·k nodes and tracks only
  // those. With T = 2^b, every other node starts below T, and marginals
  // only shrink, so a fresh heap top with gain >= T beats every
  // untracked node strictly: it is the oracle's argmax. A fresh top
  // below T (an untracked node could tie or beat it) or an empty heap
  // admits the next band down and halves T. Band 0 holds every node some
  // set contains, so the pass ends with the oracle's answer. Neither the
  // order within a band nor the absent zero-gain nodes can change the
  // output: the CELF comparator is a strict total order, and a zero-gain
  // entry is never selected.
  auto gain0 = [&](NodeId v) -> uint64_t {
    return collection.CoveringCount(v);
  };
  uint32_t band = 0;
  if (k > 0) {
    band = RRCollection::kMemberBands - 1;
    while (band > 0 &&
           collection.MemberAtLeast(band).size() < kCandidatesPerSeed * k) {
      --band;
    }
  }
  // T: a node is tracked (in the heap, with a kept marginal in trace
  // mode) iff gain0(v) >= T.
  uint64_t threshold = uint64_t{1} << band;
  const std::span<const NodeId> start = collection.MemberAtLeast(band);
  std::vector<CelfEntry> entries;
  entries.reserve(start.size());
  for (NodeId v : start) entries.push_back({gain0(v), v, 0});
  // Linear heap build (make_heap via the container ctor) instead of one
  // push per node; pop order — and therefore the seed set — only depends
  // on the comparator, not the heap's internal layout.
  std::priority_queue<CelfEntry> queue(std::less<CelfEntry>{},
                                       std::move(entries));

  // Λ(v | S_i*) from v's postings against the covered bitset.
  auto uncovered_gain = [&](NodeId v) {
    const std::span<const RRId> ids = collection.Covering(v);
    words_scanned += ids.size();
    return CountUncoveredIds(ids, covered.words());
  };
  // Lowers the band by one and calls admit(v) for each node it adds:
  // those whose initial gain lies in [T/2, T).
  auto widen = [&](auto&& admit) {
    OPIM_DCHECK_LT(0u, band);
    const uint64_t old_threshold = threshold;
    --band;
    threshold >>= 1;
    ++admissions;
    for (NodeId v : collection.MemberAtLeast(band)) {
      if (gain0(v) < old_threshold) admit(v);
    }
  };
  // Pops the next pick: a fresh entry with gain >= T. `refresh(v)` gives
  // a stale entry's current gain (submodularity guarantees it only
  // shrinks; a zero leaves the queue for good) and `admit_band()` widens
  // the band. Returns node kInvalidNode once every RR set is covered.
  auto pop_best = [&](auto&& refresh, auto&& admit_band) -> CelfEntry {
    for (;;) {
      if (queue.empty()) {
        if (band == 0) return {0, kInvalidNode, 0};
        admit_band();
        continue;
      }
      CelfEntry top = queue.top();
      queue.pop();
      ++pops;
      if (selected[top.node]) continue;
      if (top.round != round) {
        top.gain = refresh(top.node);
        top.round = round;
        ++rescans;
        if (top.gain > 0) queue.push(top);
        continue;
      }
      // Every queued gain is positive, so this falls through only while
      // band > 0 (T > 1).
      if (top.gain >= threshold) return top;
      queue.push(top);
      admit_band();
    }
  };
  auto finish = [&] {
    OPIM_TM_COUNTER_ADD("opim.select.celf_pops", pops);
    OPIM_TM_COUNTER_ADD("opim.select.celf_rescans", rescans);
    OPIM_TM_COUNTER_ADD("opim.select.celf_admissions", admissions);
    OPIM_TM_COUNTER_ADD("opim.select.cover_updates", cover_updates);
    OPIM_TM_COUNTER_ADD("opim.select.words_scanned", words_scanned);
    FillWithUnselected(n, k, selected, &result.seeds);
    result.coverage = coverage;
  };

  if (result.trace_ks.empty()) {
    // Classic CELF: no marginal bookkeeping at all — a stale entry's gain
    // is recomputed on demand from its postings, and an admitted node
    // enters with its initial gain as a stale upper bound (exact while
    // nothing is covered).
    auto admit_band = [&] {
      widen([&](NodeId v) { queue.push({gain0(v), v, 0}); });
    };
    while (result.seeds.size() < k) {
      const CelfEntry best = pop_best(uncovered_gain, admit_band);
      if (best.node == kInvalidNode) break;  // coverage saturated
      selected[best.node] = 1;
      result.seeds.push_back(best.node);
      coverage += best.gain;
      MarkCoveredBy(collection, best.node, &covered, [](RRId) {});
      ++round;
    }
    finish();
    return result;
  }

  // Trace mode (what OPIM⁺'s Eq. (10) bound consumes): maintain the exact
  // marginals Λ(v | S_i*) of the tracked nodes — a stale queue entry then
  // refreshes with an O(1) lookup — plus a bucket histogram over their
  // values. Every update is a decrement, so it moves one node down one
  // bucket in O(1), and each prefix's top-k marginal sum is a walk down
  // the histogram from the current maximum: no per-pick O(n) scan, copy,
  // or nth_element happens at all. The walk is exact once the k-th
  // largest tracked marginal is at least T − 1, the most an untracked
  // node can hold; until then it admits the next band and walks again.
  // A smaller traced size j needs nothing more: the j-th largest marginal
  // is at least the k-th, and the same walk passes its top-j sum.
  // Read and written for tracked nodes only, so left uninitialized (and
  // 32-bit, as counts stay below 2^32: half the pages to fault in).
  const auto marginal = std::make_unique_for_overwrite<uint32_t[]>(n);
  uint64_t max_count = 0;
  for (NodeId v : start) {
    marginal[v] = static_cast<uint32_t>(gain0(v));
    max_count = std::max(max_count, gain0(v));
  }
  // hist[c] = #tracked nodes with marginal c, c > 0. An admitted marginal
  // is below T <= every starting gain, so the size holds.
  std::vector<uint32_t> hist(max_count + 1, 0);
  for (NodeId v : start) ++hist[gain0(v)];
  // An admitted node enters with its exact current marginal.
  auto admit_band = [&] {
    widen([&](NodeId v) {
      const uint64_t m = uncovered_gain(v);
      marginal[v] = static_cast<uint32_t>(m);
      if (m == 0) return;
      ++hist[m];
      max_count = std::max(max_count, m);
      queue.push({m, v, round});
    });
  };

  // Column c of the trace holds size sizes[c]; k's is the last. Entries
  // past the last real pick stay 0 (coverage saturated).
  const std::vector<uint32_t>& sizes = result.trace_ks;
  const size_t stride = size_t{k} + 1;
  result.topk_marginal_at.assign(sizes.size() * stride, 0);
  result.coverage_at.reserve(stride);
  auto record_prefix = [&] {
    uint64_t* const column =
        result.topk_marginal_at.data() + result.coverage_at.size();
    result.coverage_at.push_back(coverage);
    for (;;) {
      // The maximum only decreases between admissions (all updates are
      // decrements), so the cursor moves monotonically.
      while (max_count > 0 && hist[max_count] == 0) --max_count;
      uint64_t sum = 0;
      uint64_t taken = 0;
      uint64_t kth = 0;  // the k-th largest tracked marginal, once taken
      size_t c = 0;      // the next size below k to fill
      for (uint64_t value = max_count; value > 0 && taken < k; --value) {
        const uint64_t take = std::min<uint64_t>(hist[value], k - taken);
        if (take == 0) continue;
        // This bucket completes the top-j sums for j in (taken, taken +
        // take].
        for (; c + 1 < sizes.size() && sizes[c] <= taken + take; ++c) {
          column[c * stride] = sum + value * (sizes[c] - taken);
        }
        sum += value * take;
        taken += take;
        kth = value;
      }
      if (band > 0 && (taken < k || kth + 1 < threshold)) {
        admit_band();
        continue;
      }
      // Fewer than j nonzero marginals means the top-j sum is the total.
      for (; c < sizes.size(); ++c) column[c * stride] = sum;
      return;
    }
  };

  auto tracked_marginal = [&](NodeId v) { return marginal[v]; };
  for (uint32_t i = 0; i < k; ++i) {
    record_prefix();
    const CelfEntry best = pop_best(tracked_marginal, admit_band);
    if (best.node == kInvalidNode) break;  // all RR sets covered

    selected[best.node] = 1;
    result.seeds.push_back(best.node);
    coverage += best.gain;
    MarkCoveredBy(collection, best.node, &covered, [&](RRId id) {
      collection.ForEachMember(id, [&](NodeId w) {
        if (gain0(w) < threshold) return;  // untracked: no marginal kept
        // w belongs to a set that was uncovered, so marginal[w] >= 1.
        ++cover_updates;
        const uint64_t c = marginal[w]--;
        --hist[c];
        if (c > 1) ++hist[c - 1];
      });
    });
    OPIM_DCHECK_EQ(marginal[best.node], 0u);
    ++round;
  }
  record_prefix();
  result.coverage_at.resize(stride, coverage);

  finish();
  return result;
}

}  // namespace opim
