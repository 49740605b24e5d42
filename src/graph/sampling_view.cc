#include "graph/sampling_view.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <span>
#include <vector>

#include "support/thread_pool.h"

namespace opim {

namespace {

constexpr uint32_t kChunk = 4096;

/// Runs `fn(chunk, lo, hi)` over the kChunk-node ranges covering [0, n),
/// across the pool when one is supplied and the graph is big enough to
/// pay for the dispatch. Ranges are disjoint, so parallel construction
/// writes each output slot exactly once and the result is identical for
/// any worker count.
void ForEachChunk(uint32_t n, ThreadPool* pool,
                  const std::function<void(uint64_t, NodeId, NodeId)>& fn) {
  const uint64_t chunks = (uint64_t{n} + kChunk - 1) / kChunk;
  const auto run = [&](uint64_t c) {
    const NodeId lo = static_cast<NodeId>(c * kChunk);
    const NodeId hi = static_cast<NodeId>(
        std::min<uint64_t>(n, c * kChunk + kChunk));
    fn(c, lo, hi);
  };
  if (pool == nullptr || pool->num_threads() <= 1 || chunks < 2) {
    for (uint64_t c = 0; c < chunks; ++c) run(c);
    return;
  }
  pool->ParallelFor(chunks, run);
}

/// Turns per-chunk side-arena slot counts into each chunk's first slot
/// (in place) and returns the total, checked to fit the records' 32-bit
/// offsets.
uint64_t ExclusivePrefixSum(std::vector<uint64_t>* chunk_slots) {
  uint64_t total = 0;
  for (uint64_t& slots : *chunk_slots) {
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
  const auto bits = static_cast<uint8_t>(parts);
  if (bits & static_cast<uint8_t>(Parts::kIc)) BuildIc(pool);
  if (bits & static_cast<uint8_t>(Parts::kLt)) BuildLt(pool);
}

void SamplingView::BuildIc(ThreadPool* pool) {
  const Graph& g = *graph_;
  const uint32_t n = g.num_nodes();
  const std::span<const uint64_t> in_offsets = g.storage_view().in_offsets;
  ic_nodes_.assign(n, IcNode{0, 0, 0});
  std::vector<uint64_t> chunk_slots((uint64_t{n} + kChunk - 1) / kChunk, 0);

  // Pass 1: classify every node. A uniform node gets its final record,
  // pointing into the graph's reverse CSR. An explicit one (positive
  // in-edges that do not all share one bit pattern) is classified over
  // its kept p > 0 edges, exactly as if they were all there was, and
  // parks its run length (header + kept edges) in `offset` for pass 2.
  ForEachChunk(n, pool, [&](uint64_t c, NodeId lo, NodeId hi) {
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
        chunk_slots[c] += kept + 1;
      }
    }
  });
  ic_side_.resize(ExclusivePrefixSum(&chunk_slots));

  // Pass 2: lay out the explicit nodes' runs — a header slot holding the
  // kept-edge count, then the kept {neighbor, reject} pairs in
  // reverse-CSR order. Chunks without explicit nodes are not touched.
  ForEachChunk(n, pool, [&](uint64_t c, NodeId lo, NodeId hi) {
    const uint64_t end = c + 1 < chunk_slots.size() ? chunk_slots[c + 1]
                                                    : ic_side_.size();
    uint64_t w = chunk_slots[c];
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

void SamplingView::BuildLt(ThreadPool* pool) {
  const Graph& g = *graph_;
  OPIM_CHECK_MSG(g.MaxInWeightSum() <= 1.0 + 1e-9,
                 "LT requires per-node incoming weights to sum to <= 1");
  const uint32_t n = g.num_nodes();
  const std::span<const uint64_t> in_offsets = g.storage_view().in_offsets;
  lt_nodes_.assign(n, LtNode{0, 0, kAlwaysReject, 0});
  std::vector<uint64_t> chunk_slots((uint64_t{n} + kChunk - 1) / kChunk, 0);

  // Pass 1: stop thresholds and degrees for every node. A node whose walk
  // can continue and whose in-weights differ needs alias buckets; every
  // other node steps (if at all) to a uniformly drawn in-neighbor of the
  // graph — with equal weights every Vose bucket is full and keeps its
  // own neighbor, so the buckets would add nothing.
  ForEachChunk(n, pool, [&](uint64_t c, NodeId lo, NodeId hi) {
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
        chunk_slots[c] += probs.size();
      }
    }
  });
  lt_side_.resize(ExclusivePrefixSum(&chunk_slots));

  // Pass 2: one Vose alias build per explicit node, written straight into
  // its side-arena slice with both bucket outcomes stored as *resolved
  // node ids*. Scratch lives per chunk: workers never contend and nodes
  // never alias each other's buckets.
  ForEachChunk(n, pool, [&](uint64_t c, NodeId lo, NodeId hi) {
    const uint64_t end = c + 1 < chunk_slots.size() ? chunk_slots[c + 1]
                                                    : lt_side_.size();
    uint64_t off = chunk_slots[c];
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
