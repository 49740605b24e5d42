#include "graph/sampling_view.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "obs/telemetry.h"
#include "obs/trace.h"
#include "support/thread_pool.h"

namespace opim {

namespace {

// The build splits [0, n) into node ranges of about equal weight: at most
// kMaxRanges of them, and none lighter than kMinRangeWeight unless the
// whole graph is. A node weighs its in-degree plus kNodeWeight: writing
// and classifying a record costs about as much as scanning that many
// in-probabilities (node counts alone leave pokec-sim's first 4096 nodes,
// 93.7 % of its in-edges at scale 17, to one thread; in-edges alone load
// R-MAT's last ranges with thousands of low-degree nodes each).
constexpr uint64_t kMaxRanges = 64;
constexpr uint64_t kMinRangeWeight = uint64_t{1} << 15;
constexpr uint64_t kNodeWeight = 32;

/// Boundaries of the build's node ranges, range r being [b[r], b[r + 1]),
/// cut from the reverse CSR's offsets alone: range r ends at the first
/// node whose prefix weight reaches r / ranges of the total. A node
/// heavier than a range's share gets a range to itself; empty ranges are
/// dropped.
std::vector<NodeId> BalancedRanges(std::span<const uint64_t> in_offsets) {
  const uint64_t n = in_offsets.size() - 1;
  const auto prefix_weight = [&](uint64_t v) {
    return kNodeWeight * v + in_offsets[v];
  };
  const uint64_t total = prefix_weight(n);
  const uint64_t ranges =
      std::clamp<uint64_t>(total / kMinRangeWeight, 1, kMaxRanges);
  std::vector<NodeId> bounds{0};
  for (uint64_t r = 1; r < ranges; ++r) {
    const uint64_t target = total * r / ranges;
    uint64_t lo = bounds.back();
    uint64_t hi = n;
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo) / 2;
      if (prefix_weight(mid) < target) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo > bounds.back() && lo < n) bounds.push_back(static_cast<NodeId>(lo));
  }
  bounds.push_back(static_cast<NodeId>(n));
  return bounds;
}

/// Runs `fn(r, lo, hi)` over the node ranges `bounds` describes, across
/// the pool when one is supplied and there is more than one range. Ranges
/// are disjoint, so parallel construction writes each output slot exactly
/// once and the result is identical for any worker count.
void ForEachRange(std::span<const NodeId> bounds, ThreadPool* pool,
                  const std::function<void(uint64_t, NodeId, NodeId)>& fn) {
  const uint64_t ranges = bounds.size() - 1;
  const auto run = [&](uint64_t r) { fn(r, bounds[r], bounds[r + 1]); };
  if (pool == nullptr || pool->num_threads() <= 1 || ranges < 2) {
    for (uint64_t r = 0; r < ranges; ++r) run(r);
    return;
  }
  pool->ParallelFor(ranges, run);
}

/// Turns per-range side-arena slot counts into each range's first slot
/// (in place) and returns the total, checked to fit the records' 32-bit
/// offsets.
uint64_t ExclusivePrefixSum(std::vector<uint64_t>* range_slots) {
  uint64_t total = 0;
  for (uint64_t& slots : *range_slots) {
    const uint64_t first = total;
    total += slots;
    slots = first;
  }
  OPIM_CHECK_MSG(total <= 0xffffffffULL,
                 "sampling view side arena exceeds 32-bit offsets");
  return total;
}

/// True when every probability has the same bit pattern. Such a node's
/// per-edge sampling state would be one value repeated, so the view keeps
/// none and reads its neighbors straight from the graph.
bool AllBitwiseEqual(std::span<const double> probs) {
  if (probs.empty()) return true;
  const uint64_t first = std::bit_cast<uint64_t>(probs[0]);
  bool equal = true;
  for (const double p : probs) equal &= std::bit_cast<uint64_t>(p) == first;
  return equal;
}

/// IC traversal kind of a node with `kept` positive in-edges, `uniform`
/// when they all share probability `p`.
SamplingView::IcNodeKind ClassifyIc(uint64_t kept, bool uniform, double p) {
  using Kind = SamplingView::IcNodeKind;
  if (kept == 0) return Kind::kEmpty;
  if (uniform && p >= 1.0) return Kind::kKeepAll;
  if (uniform && kept >= SamplingView::kSkipMinDegree &&
      p <= SamplingView::kSkipMaxProb) {
    return Kind::kSkip;
  }
  return Kind::kPerEdge;
}

}  // namespace

SamplingView::SamplingView(const Graph& g, Parts parts, ThreadPool* pool)
    : graph_(&g), in_neighbors_(g.storage_view().in_neighbors.data()) {
  OPIM_CHECK_GT(g.num_nodes(), 0u);
  // Records keep edge offsets and in-degrees in 32 bits (one 16-byte load
  // per member in the kernels); a 32-bit NodeId graph this size limit
  // would reject does not arise in practice.
  OPIM_CHECK_LE(g.num_edges(), 0xffffffffULL);
  const std::vector<NodeId> ranges =
      BalancedRanges(g.storage_view().in_offsets);
  const auto bits = static_cast<uint8_t>(parts);
  if (bits & static_cast<uint8_t>(Parts::kIc)) BuildIc(ranges, pool);
  if (bits & static_cast<uint8_t>(Parts::kLt)) BuildLt(ranges, pool);
}

const SamplingView& SamplingView::For(const Graph& g, Parts parts,
                                      ThreadPool* pool) {
  const auto bits = static_cast<uint8_t>(parts);
  std::unique_ptr<const SamplingView>& slot = g.views_[bits - 1];
  std::lock_guard<std::mutex> lock(g.views_mu_);
  if (slot == nullptr) {
    OPIM_TR_SPAN2("view_build", "graph", "parts", bits, "nodes",
                  g.num_nodes());
    OPIM_TM_SCOPED_TIMER("opim.graph.view_build_us");
    slot = std::make_unique<const SamplingView>(g, parts, pool);
    OPIM_TM_COUNTER_ADD("opim.graph.view_builds", 1);
  }
  return *slot;
}

void SamplingView::BuildIc(std::span<const NodeId> ranges, ThreadPool* pool) {
  const Graph& g = *graph_;
  const uint32_t n = g.num_nodes();
  const std::span<const uint64_t> in_offsets = g.storage_view().in_offsets;
  ic_nodes_.assign(n, IcNode{0, 0, 0});
  std::vector<uint64_t> range_slots(ranges.size() - 1, 0);

  // Pass 1: classify every node. A uniform node gets its final record,
  // pointing into the graph's reverse CSR. An explicit one (positive
  // in-edges that do not all share one bit pattern) is classified over
  // its kept p > 0 edges, exactly as if they were all there was, and
  // parks its run length (header + kept edges) in `offset` for pass 2.
  ForEachRange(ranges, pool, [&](uint64_t r, NodeId lo, NodeId hi) {
    for (NodeId v = lo; v < hi; ++v) {
      const auto probs = g.InProbs(v);
      OPIM_CHECK_MSG(probs.size() < kMaxIcInDegree,
                     "in-degree too large for the IC sampling record");
      IcNode& rec = ic_nodes_[v];
      rec.indeg_kind = static_cast<uint32_t>(probs.size()) << kIcDegreeShift;
      uint64_t kept = 0;
      double first = -1.0;
      bool uniform = true;
      const bool graph_backed = AllBitwiseEqual(probs);
      if (graph_backed) {
        rec.offset = static_cast<uint32_t>(in_offsets[v]);
        first = probs.empty() ? 0.0 : probs[0];
        kept = first > 0.0 ? probs.size() : 0;
      } else {
        for (const double p : probs) {
          if (p <= 0.0) continue;
          if (first < 0.0) {
            first = p;
          } else {
            uniform &= p == first;
          }
          ++kept;
        }
      }
      const IcNodeKind kind = ClassifyIc(kept, uniform, first);
      rec.indeg_kind |= static_cast<uint32_t>(kind);
      if (kind == IcNodeKind::kSkip) {
        rec.param = std::bit_cast<uint64_t>(1.0 / std::log1p(-first));
      } else if (kind == IcNodeKind::kPerEdge && graph_backed) {
        rec.param = QuantizeRejectThreshold(first);
      }
      if (!graph_backed && kind != IcNodeKind::kEmpty) {
        rec.indeg_kind |= kIcExplicit;
        rec.offset = static_cast<uint32_t>(kept + 1);
        range_slots[r] += kept + 1;
      }
    }
  });
  ic_side_.resize(ExclusivePrefixSum(&range_slots));

  // Pass 2: lay out the explicit nodes' runs — a header slot holding the
  // kept-edge count, then the kept {neighbor, reject} pairs in
  // reverse-CSR order. Ranges without explicit nodes are not touched.
  ForEachRange(ranges, pool, [&](uint64_t r, NodeId lo, NodeId hi) {
    const uint64_t end = r + 1 < range_slots.size() ? range_slots[r + 1]
                                                    : ic_side_.size();
    uint64_t w = range_slots[r];
    for (NodeId v = lo; v < hi && w < end; ++v) {
      IcNode& rec = ic_nodes_[v];
      if ((rec.indeg_kind & kIcExplicit) == 0) continue;
      const uint32_t run = rec.offset;
      rec.offset = static_cast<uint32_t>(w);
      ic_side_[w++] = IcEdge{run - 1, 0};
      const auto probs = g.InProbs(v);
      const auto nbrs = g.InNeighbors(v);
      for (size_t i = 0; i < probs.size(); ++i) {
        if (probs[i] <= 0.0) continue;
        ic_side_[w++] = IcEdge{nbrs[i], QuantizeRejectThreshold(probs[i])};
      }
    }
  });
}

void SamplingView::BuildLt(std::span<const NodeId> ranges, ThreadPool* pool) {
  const Graph& g = *graph_;
  OPIM_CHECK_MSG(g.MaxInWeightSum() <= 1.0 + 1e-9,
                 "LT requires per-node incoming weights to sum to <= 1");
  const uint32_t n = g.num_nodes();
  const std::span<const uint64_t> in_offsets = g.storage_view().in_offsets;
  lt_nodes_.assign(n, LtNode{0, 0, kAlwaysReject, 0});
  std::vector<uint64_t> range_slots(ranges.size() - 1, 0);

  // Pass 1: stop thresholds and degrees for every node. A node whose walk
  // can continue and whose in-weights differ needs alias buckets; every
  // other node steps (if at all) to a uniformly drawn in-neighbor of the
  // graph — with equal weights every Vose bucket is full and keeps its
  // own neighbor, so the buckets would add nothing.
  ForEachRange(ranges, pool, [&](uint64_t r, NodeId lo, NodeId hi) {
    for (NodeId v = lo; v < hi; ++v) {
      const auto probs = g.InProbs(v);
      LtNode& rec = lt_nodes_[v];
      rec.offset = static_cast<uint32_t>(in_offsets[v]);
      rec.degree = static_cast<uint32_t>(probs.size());
      if (probs.empty()) continue;  // stop threshold stays kAlwaysReject
      const double stay = g.InWeightSum(v);
      if (stay <= 0.0) continue;  // zero mass: the walk always stops at v
      rec.stop_rej = QuantizeRejectThreshold(stay);
      if (!AllBitwiseEqual(probs)) {
        rec.explicit_buckets = 1;
        range_slots[r] += probs.size();
      }
    }
  });
  lt_side_.resize(ExclusivePrefixSum(&range_slots));

  // Pass 2: one Vose alias build per explicit node, written straight into
  // its side-arena slice with both bucket outcomes stored as *resolved
  // node ids*. Scratch lives per range: workers never contend and nodes
  // never alias each other's buckets.
  ForEachRange(ranges, pool, [&](uint64_t r, NodeId lo, NodeId hi) {
    const uint64_t end = r + 1 < range_slots.size() ? range_slots[r + 1]
                                                    : lt_side_.size();
    uint64_t off = range_slots[r];
    std::vector<double> scaled;
    std::vector<uint32_t> small, large;
    for (NodeId v = lo; v < hi && off < end; ++v) {
      LtNode& rec = lt_nodes_[v];
      if (rec.explicit_buckets == 0) continue;
      rec.offset = static_cast<uint32_t>(off);
      const auto probs = g.InProbs(v);
      const auto nbrs = g.InNeighbors(v);
      const size_t d = probs.size();
      const double stay = g.InWeightSum(v);
      scaled.assign(probs.begin(), probs.end());
      for (double& s : scaled) s *= static_cast<double>(d) / stay;
      small.clear();
      large.clear();
      for (size_t i = 0; i < d; ++i) {
        (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
      }
      while (!small.empty() && !large.empty()) {
        const uint32_t s = small.back();
        small.pop_back();
        const uint32_t l = large.back();
        large.pop_back();
        lt_side_[off + s] =
            LtBucket{QuantizeRejectThreshold(scaled[s]), nbrs[s], nbrs[l]};
        scaled[l] = (scaled[l] + scaled[s]) - 1.0;
        (scaled[l] < 1.0 ? small : large).push_back(l);
      }
      // Remaining buckets are (numerically) exactly full: they keep their
      // own neighbor with certainty, which the kernel reads off rej == 0
      // without spending a draw.
      for (const uint32_t l : large) {
        lt_side_[off + l] = LtBucket{0, nbrs[l], nbrs[l]};
      }
      for (const uint32_t s : small) {
        lt_side_[off + s] = LtBucket{0, nbrs[s], nbrs[s]};
      }
      off += d;
    }
  });
}

std::vector<SamplingView::IcEdge> SamplingView::IcKeptEdges(NodeId v) const {
  const IcNode& rec = ic_nodes_[v];
  if (ic_kind(v) == IcNodeKind::kEmpty) return {};
  if (IcExplicit(v)) {
    const IcEdge* run = ic_side_.data() + rec.offset;
    return {run + 1, run + 1 + run[0].nbr};
  }
  const uint32_t rej = QuantizeRejectThreshold(graph_->InProbs(v)[0]);
  std::vector<IcEdge> edges;
  for (uint32_t i = 0; i < IcFullInDegree(v); ++i) {
    edges.push_back(IcEdge{in_neighbors_[rec.offset + i], rej});
  }
  return edges;
}

std::vector<SamplingView::LtBucket> SamplingView::LtBuckets(NodeId v) const {
  const LtNode& rec = lt_nodes_[v];
  if (rec.stop_rej == kAlwaysReject) return {};
  if (rec.explicit_buckets != 0) {
    return {lt_side_.data() + rec.offset,
            lt_side_.data() + rec.offset + rec.degree};
  }
  std::vector<LtBucket> buckets;
  for (uint32_t i = 0; i < rec.degree; ++i) {
    const NodeId w = in_neighbors_[rec.offset + i];
    buckets.push_back(LtBucket{0, w, w});
  }
  return buckets;
}

}  // namespace opim
