// Sampling-oriented view of the reverse graph.
//
// The RR-set samplers spend nearly all their time deciding, edge by edge,
// whether a reverse-CSR in-edge is live. Graph stores probabilities as
// doubles, so the natural kernel is `rng.UniformDouble() < p` — a 64-bit
// draw, an int→double conversion, and a double compare per edge.
// SamplingView precomputes, once per graph, everything that lets the
// kernels consume the RNG stream 32 bits at a time:
//
//   * IC: *reject* thresholds quantized to uint32_t — an edge is rejected
//     iff `rng.NextU32() < rej`, with per-edge error <= 2^-32 and p >= 1
//     kept *exactly* (rej == 0). Edges with p <= 0 are never traversed
//     (exactly never live; traversal cost still charges the full
//     in-degree, which the view carries per node). Each node is
//     classified: uniform-probability nodes — true by construction for
//     kWeightedCascade and kConstant weights — with enough in-edges
//     additionally precompute 1/log1p(-p), so the kernel can jump
//     Geometric(p) edges ahead (Rng::GeometricSkip) instead of flipping a
//     coin per in-neighbor: expected RNG draws drop from deg to p·deg + 1.
//   * LT: a Walker/Vose alias table per node plus a quantized per-node
//     stop threshold (the walk continues with probability Σ_w p(w, v)).
//
// The storage is O(n) for the graphs the paper evaluates. A node whose
// in-probabilities are all bitwise equal — every node under weighted
// cascade or constant weights — needs no per-edge state: each of its
// in-edges has the same reject threshold, and its alias table is uniform
// (every scaled Vose weight is the same double, so every bucket is full
// and keeps its own neighbor). Such a *uniform* node's record points
// straight into Graph::InNeighbors, and the kernels read its neighbors
// from the graph. Only the remaining *explicit* nodes keep per-edge state,
// in a side arena sized by their own edges: compacted {neighbor, reject}
// pairs for IC, resolved {reject, keep, alias} buckets for LT.
//
// The layout is chosen for the memory-latency profile of real RR
// sampling: at typical scales a sample touches a handful of *random*
// nodes, so cache lines per member — not arithmetic — bound throughput.
// Every node has one 16-byte record per part (four to a cache line)
// holding everything but its edges: the edge offset, the full in-degree
// and kind plus the shared threshold or skip constant for IC; the edge
// offset, in-degree and stop threshold for LT. A member therefore costs
// one random record load plus one run through its neighbors.
//
// A view is immutable after construction and shared read-only across
// worker threads. Each Graph memoizes its views (SamplingView::For): the
// first engine or sampler that needs a part builds it, and every later
// one on the same Graph object borrows it, so a loaded graph pays the
// O(n + m) pass once however many runs it serves.
// Construction splits the nodes into ranges of about equal work (in-edges
// plus a fixed cost per node), parallelizes over them on an optional
// ThreadPool, and lays everything out in node order: the view is
// byte-identical for any split and worker count.

#pragma once

#include <bit>
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

/// Read-only, shareable sampling state derived from a Graph. Get it from
/// For(), which builds it once per graph, and hand `const SamplingView&`
/// to every sampler/worker.
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

  /// One IC edge of an explicit node: kept in-neighbor plus its quantized
  /// reject threshold, adjacent so a single cache line serves both.
  struct IcEdge {
    NodeId nbr;
    uint32_t rej;
  };

  /// Per-node IC record. `indeg_kind` packs the IcNodeKind (bits 0-1),
  /// kIcExplicit when the node's edges live in the side arena (bit 2), and
  /// the *full* in-degree — the cost contract — from bit kIcDegreeShift.
  ///   * Uniform node (in-probabilities all bitwise equal): `offset` is
  ///     its first in-edge in the graph's reverse CSR and all in-degree
  ///     edges are traversed; `param` holds the shared reject threshold
  ///     (kPerEdge).
  ///   * Explicit node: `offset` is its run in the side arena — one
  ///     header slot whose `nbr` is the kept-edge count, then the kept
  ///     (p > 0) edges in reverse-CSR order.
  /// Either way `param` holds the bits of 1/log1p(-p) for kSkip nodes.
  struct alignas(16) IcNode {
    uint32_t offset;
    uint32_t indeg_kind;
    uint64_t param;
  };
  static_assert(sizeof(IcNode) == 16);
  static constexpr uint32_t kIcKindMask = 3;
  static constexpr uint32_t kIcExplicit = 4;
  static constexpr uint32_t kIcDegreeShift = 3;
  /// In-degrees at or above this do not fit the packed record; the IC
  /// build rejects such a graph (checked) rather than truncating them.
  static constexpr uint64_t kMaxIcInDegree = uint64_t{1}
                                             << (32 - kIcDegreeShift);

  /// One resolved LT alias bucket of an explicit node: the draw *deviates
  /// to `alias`* iff `rng.NextU32() < rej` (0 = full bucket, keeps `keep`
  /// with no draw); both outcomes are stored as node ids.
  struct LtBucket {
    uint32_t rej;
    NodeId keep;
    NodeId alias;
  };

  /// Per-node LT record. A uniform node (`explicit_buckets == 0`) steps to
  /// in-neighbor `offset + UniformBelow(degree)` of the graph's reverse
  /// CSR; an explicit node draws bucket `offset + UniformBelow(degree)`
  /// of the side arena.
  struct alignas(16) LtNode {
    uint32_t offset;
    uint32_t degree;
    uint32_t stop_rej;
    uint32_t explicit_buckets;
  };
  static_assert(sizeof(LtNode) == 16);

  /// Uniform nodes switch from per-edge compares to geometric skipping at
  /// this in-degree (and only for p <= kSkipMaxProb): a Geometric(p) draw
  /// costs several threshold compares, so skipping pays off once the
  /// expected p·deg + 1 draws undercut deg compares with room to spare.
  static constexpr uint64_t kSkipMinDegree = 16;
  static constexpr double kSkipMaxProb = 0.125;

  /// Builds the requested parts. `pool` (optional) parallelizes
  /// construction; the result is identical for any worker count. The LT
  /// part requires per-node in-weights summing to <= 1 (checked). Prefer
  /// For(); a freshly built view is the reference it is tested against.
  explicit SamplingView(const Graph& g, Parts parts = Parts::kBoth,
                        ThreadPool* pool = nullptr);

  /// `g`'s memoized view of `parts`. The first call for a part builds it
  /// (on `pool`, when given) while concurrent callers wait, and every
  /// later call returns the same object; it lives as long as `g` (see
  /// Graph). A build that waits on `pool` cannot deadlock a worker that
  /// waits here: a pool join runs its unstarted work on the caller.
  /// Telemetry counts each build (opim.graph.view_builds, view_build_us)
  /// and traces it as a `view_build` span.
  static const SamplingView& For(const Graph& g, Parts parts,
                                 ThreadPool* pool = nullptr);

  OPIM_DISALLOW_COPY(SamplingView);

  const Graph& graph() const { return *graph_; }
  bool has_ic() const { return !ic_nodes_.empty(); }
  bool has_lt() const { return !lt_nodes_.empty(); }

  /// Footprint of the state the view owns, in bytes (capacity-based): the
  /// per-node records plus the explicit nodes' side arenas. Uniform
  /// nodes' neighbors are the graph's and are not counted. Counted
  /// against RunControl memory budgets together with
  /// RRCollection::MemoryUsage().
  uint64_t MemoryFootprintBytes() const {
    return ic_nodes_.capacity() * sizeof(IcNode) +
           ic_side_.capacity() * sizeof(IcEdge) +
           lt_nodes_.capacity() * sizeof(LtNode) +
           lt_side_.capacity() * sizeof(LtBucket);
  }

  /// The graph's reverse-CSR neighbor array, which uniform nodes' records
  /// index.
  const NodeId* InNeighborData() const { return in_neighbors_; }

  // --- IC part -----------------------------------------------------------

  IcNodeKind ic_kind(NodeId v) const {
    return static_cast<IcNodeKind>(ic_nodes_[v].indeg_kind & kIcKindMask);
  }

  /// True when v's kept edges live in the side arena: its
  /// in-probabilities are not all bitwise equal, and some are positive.
  bool IcExplicit(NodeId v) const {
    return (ic_nodes_[v].indeg_kind & kIcExplicit) != 0;
  }

  /// Full in-degree of v (including p <= 0 edges): the traversal cost the
  /// sampler charges per member.
  uint32_t IcFullInDegree(NodeId v) const {
    return ic_nodes_[v].indeg_kind >> kIcDegreeShift;
  }

  /// The kept (p > 0) in-edges of v the kernel traverses, in reverse-CSR
  /// order, each as a {neighbor, reject threshold} pair — read from the
  /// graph for uniform nodes, from the side arena otherwise. Materializes
  /// a copy: for inspection and tests, not the sampling path.
  std::vector<IcEdge> IcKeptEdges(NodeId v) const;

  /// 1/log1p(-p) for kSkip nodes (meaningless otherwise).
  double IcSkipInvLog(NodeId v) const {
    return std::bit_cast<double>(ic_nodes_[v].param);
  }

  /// Raw arrays for the sampling kernels (n records / side arena).
  const IcNode* IcNodeData() const { return ic_nodes_.data(); }
  const IcEdge* IcSideData() const { return ic_side_.data(); }
  /// Slots in the IC side arena (kept edges plus one header per explicit
  /// node); 0 when every node is uniform.
  uint64_t IcSideSize() const { return ic_side_.size(); }

  // --- LT part -----------------------------------------------------------

  /// Quantized stop threshold: the walk at v stops iff
  /// `rng.NextU32() < LtStopReject(v)`; kAlwaysReject means stop
  /// unconditionally (no in-edges or no stay mass). Exactly 0 for
  /// LT-saturated nodes (Σ p = 1, e.g. weighted cascade): no draw needed.
  uint32_t LtStopReject(NodeId v) const { return lt_nodes_[v].stop_rej; }

  /// True when v's walk steps draw from alias buckets in the side arena.
  bool LtExplicit(NodeId v) const {
    return lt_nodes_[v].explicit_buckets != 0;
  }

  /// v's alias buckets, bucket j for in-edge j, with both outcomes
  /// resolved to node ids; a uniform node's are all full. Materializes a
  /// copy (empty when the walk always stops at v): for inspection and
  /// tests, not the sampling path.
  std::vector<LtBucket> LtBuckets(NodeId v) const;

  /// Raw arrays for the sampling kernels (n records / side arena).
  const LtNode* LtNodeData() const { return lt_nodes_.data(); }
  const LtBucket* LtSideData() const { return lt_side_.data(); }
  /// Buckets in the LT side arena; 0 when every node is uniform.
  uint64_t LtSideSize() const { return lt_side_.size(); }

 private:
  // Both passes of each build run over `ranges`, node-range boundaries
  // of about equal work (see BalancedRanges in sampling_view.cc).
  void BuildIc(std::span<const NodeId> ranges, ThreadPool* pool);
  void BuildLt(std::span<const NodeId> ranges, ThreadPool* pool);

  const Graph* graph_;
  const NodeId* in_neighbors_;  // the graph's reverse CSR

  std::vector<IcNode> ic_nodes_;    // n
  std::vector<IcEdge> ic_side_;     // explicit nodes: header + kept edges
  std::vector<LtNode> lt_nodes_;    // n
  std::vector<LtBucket> lt_side_;   // explicit nodes: one bucket per edge
};

}  // namespace opim
