#include "graph/sampling_view.h"

#include <functional>

#include "support/thread_pool.h"

namespace opim {

namespace {

/// Runs `fn(lo, hi)` over node ranges covering [0, n), chunked across the
/// pool when one is supplied and the graph is big enough to pay for the
/// dispatch. Ranges are disjoint, so parallel construction writes each
/// output slot exactly once and the result is identical for any worker
/// count.
void ForEachNodeRange(uint32_t n, ThreadPool* pool,
                      const std::function<void(NodeId, NodeId)>& fn) {
  constexpr uint32_t kChunk = 4096;
  if (pool == nullptr || pool->num_threads() <= 1 || n < 2 * kChunk) {
    fn(0, n);
    return;
  }
  const uint64_t chunks = (n + kChunk - 1) / kChunk;
  pool->ParallelFor(chunks, [&](uint64_t c) {
    const NodeId lo = static_cast<NodeId>(c * kChunk);
    const NodeId hi = static_cast<NodeId>(
        std::min<uint64_t>(n, c * kChunk + kChunk));
    fn(lo, hi);
  });
}

}  // namespace

SamplingView::SamplingView(const Graph& g, Parts parts, ThreadPool* pool)
    : graph_(&g) {
  OPIM_CHECK_GT(g.num_nodes(), 0u);
  // The packed per-node records keep edge offsets and in-degrees in 32
  // bits (one 8-byte load per member in the kernels); a 32-bit NodeId
  // graph this size limit would reject does not arise in practice.
  OPIM_CHECK_LE(g.num_edges(), 0xffffffffULL);
  const auto bits = static_cast<uint8_t>(parts);
  if (bits & static_cast<uint8_t>(Parts::kIc)) BuildIc(pool);
  if (bits & static_cast<uint8_t>(Parts::kLt)) BuildLt(pool);
}

void SamplingView::BuildIc(ThreadPool* pool) {
  const Graph& g = *graph_;
  const uint32_t n = g.num_nodes();
  ic_meta_.assign(n + 1, IcNodeMeta{0, 0});
  ic_skip_inv_log_.assign(n, 0.0);

  // Pass 1: count positive-probability in-edges per node (p <= 0 edges are
  // exactly never live, so the kernel never needs to look at them).
  ForEachNodeRange(n, pool, [&](NodeId lo, NodeId hi) {
    for (NodeId v = lo; v < hi; ++v) {
      uint32_t kept = 0;
      for (double p : g.InProbs(v)) kept += p > 0.0;
      ic_meta_[v + 1].offset = kept;
    }
  });
  for (uint32_t v = 0; v < n; ++v) ic_meta_[v + 1].offset += ic_meta_[v].offset;
  ic_edges_.resize(ic_meta_[n].offset);

  // Pass 2: place interleaved {neighbor, reject} pairs, classify nodes,
  // and pack `indeg << 2 | kind` next to the offset so one 8-byte load
  // serves the kernel's whole per-member dispatch.
  ForEachNodeRange(n, pool, [&](NodeId lo, NodeId hi) {
    for (NodeId v = lo; v < hi; ++v) {
      const auto probs = g.InProbs(v);
      const auto nbrs = g.InNeighbors(v);
      uint32_t w = ic_meta_[v].offset;
      double first = -1.0;
      bool uniform = true;
      for (size_t i = 0; i < probs.size(); ++i) {
        if (probs[i] <= 0.0) continue;
        if (first < 0.0) {
          first = probs[i];
        } else {
          uniform &= probs[i] == first;
        }
        ic_edges_[w] = IcEdge{nbrs[i], QuantizeRejectThreshold(probs[i])};
        ++w;
      }
      const uint32_t kept = w - ic_meta_[v].offset;
      IcNodeKind kind = IcNodeKind::kEmpty;
      if (kept > 0) {
        if (uniform && first >= 1.0) {
          kind = IcNodeKind::kKeepAll;
        } else if (uniform && kept >= kSkipMinDegree &&
                   first <= kSkipMaxProb) {
          kind = IcNodeKind::kSkip;
          ic_skip_inv_log_[v] = 1.0 / std::log1p(-first);
        } else {
          kind = IcNodeKind::kPerEdge;
        }
      }
      ic_meta_[v].indeg_kind =
          (static_cast<uint32_t>(probs.size()) << 2) |
          static_cast<uint32_t>(kind);
    }
  });
}

void SamplingView::BuildLt(ThreadPool* pool) {
  const Graph& g = *graph_;
  OPIM_CHECK_MSG(g.MaxInWeightSum() <= 1.0 + 1e-9,
                 "LT requires per-node incoming weights to sum to <= 1");
  const uint32_t n = g.num_nodes();
  lt_meta_.assign(n + 1, LtNodeMeta{0, kAlwaysReject});
  for (uint32_t v = 0; v < n; ++v) {
    lt_meta_[v + 1].offset =
        lt_meta_[v].offset + static_cast<uint32_t>(g.InDegree(v));
  }
  lt_buckets_.assign(lt_meta_[n].offset, LtBucket{kAlwaysReject, 0, 0});

  // One Vose alias build per node, written straight into the shared arena
  // slice [offset(v), offset(v+1)) — with both bucket outcomes stored as
  // *resolved node ids*, so a walk step never needs the Graph adjacency.
  // Scratch lives per range: workers never contend and nodes never alias
  // each other's buckets.
  ForEachNodeRange(n, pool, [&](NodeId lo, NodeId hi) {
    std::vector<double> scaled;
    std::vector<uint32_t> small, large;
    for (NodeId v = lo; v < hi; ++v) {
      const auto probs = g.InProbs(v);
      const auto nbrs = g.InNeighbors(v);
      const size_t d = probs.size();
      if (d == 0) continue;  // stop threshold stays kAlwaysReject
      const double stay = g.InWeightSum(v);
      if (stay <= 0.0) continue;  // zero mass: the walk always stops at v
      lt_meta_[v].stop_rej = QuantizeRejectThreshold(stay);

      scaled.assign(probs.begin(), probs.end());
      for (double& s : scaled) s *= static_cast<double>(d) / stay;
      small.clear();
      large.clear();
      for (size_t i = 0; i < d; ++i) {
        (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
      }
      const uint64_t off = lt_meta_[v].offset;
      while (!small.empty() && !large.empty()) {
        const uint32_t s = small.back();
        small.pop_back();
        const uint32_t l = large.back();
        large.pop_back();
        lt_buckets_[off + s] =
            LtBucket{QuantizeRejectThreshold(scaled[s]), nbrs[s], nbrs[l]};
        scaled[l] = (scaled[l] + scaled[s]) - 1.0;
        (scaled[l] < 1.0 ? small : large).push_back(l);
      }
      // Remaining buckets are (numerically) exactly full: they keep their
      // own neighbor with certainty, which the kernel reads off rej == 0
      // without spending a draw.
      for (const uint32_t l : large) {
        lt_buckets_[off + l] = LtBucket{0, nbrs[l], nbrs[l]};
      }
      for (const uint32_t s : small) {
        lt_buckets_[off + s] = LtBucket{0, nbrs[s], nbrs[s]};
      }
    }
  });
}

}  // namespace opim
