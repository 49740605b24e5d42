// Sampling-oriented view of the reverse graph.
//
// The RR-set samplers spend nearly all their time deciding, edge by edge,
// whether a reverse-CSR in-edge is live. Graph stores probabilities as
// doubles, so the natural kernel is `rng.UniformDouble() < p` — a 64-bit
// draw, an int→double conversion, and a double compare per edge.
// SamplingView precomputes, once per graph, everything that lets the
// kernels consume the RNG stream 32 bits at a time:
//
//   * IC: per-edge *reject* thresholds quantized to uint32_t — an edge is
//     rejected iff `rng.NextU32() < rej`, with per-edge error <= 2^-32 and
//     p >= 1 kept *exactly* (rej == 0). Edges with p <= 0 are dropped from
//     the view entirely (exactly never live; traversal cost still charges
//     the full in-degree, which the view carries per node). Each node is
//     classified: uniform-probability nodes — true by construction for
//     kWeightedCascade and kConstant weights — with enough in-edges
//     additionally precompute 1/log1p(-p), so the kernel can jump
//     Geometric(p) edges ahead (Rng::GeometricSkip) instead of flipping a
//     coin per in-neighbor: expected RNG draws drop from deg to p·deg + 1.
//   * LT: one flattened Walker/Vose alias arena — single bucket array
//     indexed by the reverse-CSR offsets — instead of n independently
//     allocated per-node tables, plus a quantized per-node stop threshold
//     (the walk continues with probability Σ_w p(w, v)).
//
// The storage layout is chosen for the memory-latency profile of real RR
// sampling: at typical scales a sample touches a handful of *random*
// nodes, so cache lines per member — not arithmetic — bound throughput.
// Per-node state is packed into one 8-byte record (edge offset + full
// in-degree + kind for IC; edge offset + stop threshold for LT), and
// per-edge state is interleaved ({neighbor, reject} pairs for IC; fully
// resolved {reject, keep, alias} buckets for LT — the LT walk never
// touches the Graph arrays at all). One random load per member where the
// split-array layout took three or four.
//
// A view is immutable after construction and shared read-only across
// worker threads; ParallelGenerate builds one per call (or accepts a
// caller-cached one) instead of letting every shard re-derive per-node
// state. Construction parallelizes over nodes on an optional ThreadPool
// and is deterministic for any worker count.

#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace opim {

class ThreadPool;

/// Quantizes a keep-probability into the 32-bit reject threshold used by
/// the sampling kernels: a trial is *rejected* iff `rng.NextU32() < rej`,
/// so `rej = round((1 - p)·2^32)`. The kept probability is within 2^-32
/// of p, and p >= 1 maps to rej == 0: certain edges are kept exactly.
/// p <= 0 maps to SamplingView::kAlwaysReject; callers that must reject
/// *exactly* (not merely with probability 1 - 2^-32) test for the
/// sentinel explicitly.
inline uint32_t QuantizeRejectThreshold(double keep_prob) {
  if (keep_prob >= 1.0) return 0;
  if (keep_prob <= 0.0) return std::numeric_limits<uint32_t>::max();
  const double r = std::nearbyint((1.0 - keep_prob) * 0x1.0p32);
  if (r >= 4294967295.0) return std::numeric_limits<uint32_t>::max();
  return static_cast<uint32_t>(r);
}

/// Read-only, shareable sampling state derived from a Graph. Build once,
/// hand `const SamplingView&` to every sampler/worker.
class SamplingView {
 public:
  /// Which kernels' state to precompute.
  enum class Parts : uint8_t { kIc = 1, kLt = 2, kBoth = 3 };

  /// Reject threshold meaning "certain rejection" (up to 2^-32); also the
  /// sentinel for degenerate LT nodes (no in-edges, or zero stay mass)
  /// where the kernel must stop unconditionally.
  static constexpr uint32_t kAlwaysReject =
      std::numeric_limits<uint32_t>::max();

  /// How the IC kernel traverses a node's (positive-probability) in-edges.
  enum class IcNodeKind : uint8_t {
    kEmpty,    ///< no in-edge with p > 0: nothing to traverse
    kKeepAll,  ///< uniform p >= 1: every in-edge is live, no RNG at all
    kSkip,     ///< uniform p, degree >= kSkipMinDegree: geometric skipping
    kPerEdge,  ///< one quantized threshold compare per in-edge
  };

  /// One interleaved IC edge: kept in-neighbor plus its quantized reject
  /// threshold, adjacent so a single cache line serves both.
  struct IcEdge {
    NodeId nbr;
    uint32_t rej;
  };

  /// Packed per-node IC record: offset of the node's first kept edge in
  /// the interleaved edge array, plus the *full* in-degree (for the cost
  /// contract) and the IcNodeKind packed as `indeg << 2 | kind`. One
  /// 8-byte load gives the kernel everything about a member but the edges.
  struct IcNodeMeta {
    uint32_t offset;
    uint32_t indeg_kind;
  };

  /// One resolved LT alias bucket: the draw *deviates to `alias`* iff
  /// `rng.NextU32() < rej` (0 = full bucket, keeps `keep` with no draw);
  /// both outcomes are stored as node ids, so a walk step never reads the
  /// Graph adjacency arrays.
  struct LtBucket {
    uint32_t rej;
    NodeId keep;
    NodeId alias;
  };

  /// Packed per-node LT record: offset of the node's first bucket (the
  /// arena is aligned with the full reverse CSR, so in-degree is the
  /// offset delta) plus the quantized stop threshold.
  struct LtNodeMeta {
    uint32_t offset;
    uint32_t stop_rej;
  };

  /// Uniform nodes switch from per-edge compares to geometric skipping at
  /// this in-degree (and only for p <= kSkipMaxProb): a Geometric(p) draw
  /// costs several threshold compares, so skipping pays off once the
  /// expected p·deg + 1 draws undercut deg compares with room to spare.
  static constexpr uint64_t kSkipMinDegree = 16;
  static constexpr double kSkipMaxProb = 0.125;

  /// Builds the requested parts. `pool` (optional) parallelizes
  /// construction; the result is identical for any worker count. The LT
  /// part requires per-node in-weights summing to <= 1 (checked).
  explicit SamplingView(const Graph& g, Parts parts = Parts::kBoth,
                        ThreadPool* pool = nullptr);

  OPIM_DISALLOW_COPY(SamplingView);

  const Graph& graph() const { return *graph_; }
  bool has_ic() const { return !ic_meta_.empty(); }
  bool has_lt() const { return !lt_meta_.empty(); }

  /// Footprint of the precomputed kernel state in bytes (capacity-based).
  /// Counted against RunControl memory budgets together with
  /// RRCollection::MemoryUsage().
  uint64_t MemoryFootprintBytes() const {
    return ic_meta_.capacity() * sizeof(IcNodeMeta) +
           ic_edges_.capacity() * sizeof(IcEdge) +
           ic_skip_inv_log_.capacity() * sizeof(double) +
           lt_meta_.capacity() * sizeof(LtNodeMeta) +
           lt_buckets_.capacity() * sizeof(LtBucket);
  }

  // --- IC part -----------------------------------------------------------

  IcNodeKind ic_kind(NodeId v) const {
    return static_cast<IcNodeKind>(ic_meta_[v].indeg_kind & 3u);
  }

  /// Full in-degree of v (including dropped p <= 0 edges): the traversal
  /// cost the sampler charges per member.
  uint32_t IcFullInDegree(NodeId v) const {
    return ic_meta_[v].indeg_kind >> 2;
  }

  /// Kept (p > 0) in-edges of v in reverse-CSR order, each a
  /// {neighbor, reject threshold} pair.
  std::span<const IcEdge> IcEdges(NodeId v) const {
    return {ic_edges_.data() + ic_meta_[v].offset,
            ic_edges_.data() + ic_meta_[v + 1].offset};
  }

  /// 1/log1p(-p) for kSkip nodes (meaningless otherwise).
  double IcSkipInvLog(NodeId v) const { return ic_skip_inv_log_[v]; }

  /// Raw array access for the sampling kernels (size n + 1 / total kept).
  const IcNodeMeta* IcMetaData() const { return ic_meta_.data(); }
  const IcEdge* IcEdgeData() const { return ic_edges_.data(); }

  // --- LT part -----------------------------------------------------------

  /// Quantized stop threshold: the walk at v stops iff
  /// `rng.NextU32() < LtStopReject(v)`; kAlwaysReject means stop
  /// unconditionally (no in-edges or no stay mass). Exactly 0 for
  /// LT-saturated nodes (Σ p = 1, e.g. weighted cascade): no draw needed.
  uint32_t LtStopReject(NodeId v) const { return lt_meta_[v].stop_rej; }

  /// First alias bucket of v; bucket j corresponds to in-edge j of v.
  uint64_t LtOffset(NodeId v) const { return lt_meta_[v].offset; }

  /// Bucket contents; see LtBucket.
  const LtBucket& LtBucketAt(uint64_t bucket) const {
    return lt_buckets_[bucket];
  }

  /// Raw array access for the sampling kernels (size n + 1 / m).
  const LtNodeMeta* LtMetaData() const { return lt_meta_.data(); }
  const LtBucket* LtBucketData() const { return lt_buckets_.data(); }

 private:
  void BuildIc(ThreadPool* pool);
  void BuildLt(ThreadPool* pool);

  const Graph* graph_;

  // IC: compacted reverse CSR over positive-probability edges.
  std::vector<IcNodeMeta> ic_meta_;      // n + 1 (last: end offset)
  std::vector<IcEdge> ic_edges_;         // m' <= m
  std::vector<double> ic_skip_inv_log_;  // n (kSkip nodes only)

  // LT: flattened alias arena aligned with the full reverse CSR.
  std::vector<LtNodeMeta> lt_meta_;      // n + 1 (last: end offset)
  std::vector<LtBucket> lt_buckets_;     // m
};

}  // namespace opim
