// Immutable directed influence graph in CSR form.
//
// The graph stores both forward (out-neighbor) and reverse (in-neighbor)
// adjacency: forward adjacency drives the IC/LT cascade simulators, reverse
// adjacency drives reverse-reachable (RR) set sampling (paper §3.1 and
// Appendix A). Every edge <u, v> carries its propagation probability
// p(u, v) in both directions of the CSR.

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "support/macros.h"

namespace opim {

/// Node identifier; nodes are densely numbered [0, num_nodes).
using NodeId = uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

class GraphBuilder;
class MmapArena;
class SamplingView;

/// Read-only view of a graph's seven CSR arrays. The `.opimg` codec
/// serializes exactly these arrays in this order; WrapStorage rebuilds a
/// Graph over them without copying (the mmap load path).
struct GraphStorageView {
  std::span<const uint64_t> out_offsets;  // n + 1
  std::span<const NodeId> out_neighbors;  // m
  std::span<const double> out_probs;      // m
  std::span<const uint64_t> in_offsets;   // n + 1
  std::span<const NodeId> in_neighbors;   // m
  std::span<const double> in_probs;       // m
  std::span<const double> in_weight_sum;  // n
};

/// Immutable directed graph with per-edge propagation probabilities.
/// Construct via GraphBuilder; copy is allowed but deliberate (the CSR can
/// be large), and all queries are O(1) or O(degree).
///
/// Storage is span-based: the spans bind either to heap vectors owned by
/// this Graph (builder / text-parse path) or to a shared read-only
/// MmapArena (`.opimg` load path), so the engine above never sees the
/// difference. Copying an arena-backed graph shares the mapping; copying
/// a vector-backed graph deep-copies the CSR.
///
/// The graph also memoizes its SamplingViews (SamplingView::For): the
/// first caller that needs a part builds it, and every later engine and
/// sampler on this object borrows it. A view is derived from the CSR
/// alone and never changes it, so the graph stays logically immutable;
/// the memo is thread-safe. A copy or a moved-to graph starts with no
/// view, and a moved-from or assigned-to graph drops its old ones: a view
/// points into its own graph's reverse CSR.
class Graph {
 public:
  Graph();
  ~Graph();

  Graph(const Graph& other);
  Graph& operator=(const Graph& other);
  Graph(Graph&& other) noexcept;
  Graph& operator=(Graph&& other) noexcept;

  /// Wraps externally owned storage (typically sections of a mapped
  /// `.opimg` payload) without copying. `arena` keeps the backing pages
  /// alive; spans in `view` must point into it (or outlive the graph).
  /// Performs no validation — callers (the codec) validate first.
  static Graph WrapStorage(uint32_t num_nodes, const GraphStorageView& view,
                           std::shared_ptr<MmapArena> arena);

  /// Takes ownership of seven pre-built CSR arrays (the codec's
  /// heap-fallback path when mapping fails). Performs no validation.
  static Graph AdoptStorage(uint32_t num_nodes,
                            std::vector<uint64_t> out_offsets,
                            std::vector<NodeId> out_neighbors,
                            std::vector<double> out_probs,
                            std::vector<uint64_t> in_offsets,
                            std::vector<NodeId> in_neighbors,
                            std::vector<double> in_probs,
                            std::vector<double> in_weight_sum);

  /// Read-only view of the seven CSR arrays (the `.opimg` writer's
  /// input).
  GraphStorageView storage_view() const {
    return {out_offsets_, out_neighbors_, out_probs_,    in_offsets_,
            in_neighbors_, in_probs_,     in_weight_sum_};
  }

  /// True when the CSR lives in a mapped arena rather than heap vectors.
  bool arena_backed() const { return arena_ != nullptr; }

  /// Number of nodes n.
  uint32_t num_nodes() const { return num_nodes_; }
  /// Number of directed edges m.
  uint64_t num_edges() const { return out_neighbors_.size(); }
  /// Average out-degree m/n (0 for the empty graph).
  double average_degree() const {
    return num_nodes_ == 0
               ? 0.0
               : static_cast<double>(num_edges()) / num_nodes_;
  }

  /// Out-neighbors of u (targets of edges u -> ·).
  std::span<const NodeId> OutNeighbors(NodeId u) const {
    OPIM_CHECK_LT(u, num_nodes_);
    return {out_neighbors_.data() + out_offsets_[u],
            out_neighbors_.data() + out_offsets_[u + 1]};
  }
  /// Probabilities aligned with OutNeighbors(u): p(u, v_i).
  std::span<const double> OutProbs(NodeId u) const {
    OPIM_CHECK_LT(u, num_nodes_);
    return {out_probs_.data() + out_offsets_[u],
            out_probs_.data() + out_offsets_[u + 1]};
  }
  /// In-neighbors of v (sources of edges · -> v).
  std::span<const NodeId> InNeighbors(NodeId v) const {
    OPIM_CHECK_LT(v, num_nodes_);
    return {in_neighbors_.data() + in_offsets_[v],
            in_neighbors_.data() + in_offsets_[v + 1]};
  }
  /// Probabilities aligned with InNeighbors(v): p(w_i, v).
  std::span<const double> InProbs(NodeId v) const {
    OPIM_CHECK_LT(v, num_nodes_);
    return {in_probs_.data() + in_offsets_[v],
            in_probs_.data() + in_offsets_[v + 1]};
  }

  uint64_t OutDegree(NodeId u) const {
    OPIM_CHECK_LT(u, num_nodes_);
    return out_offsets_[u + 1] - out_offsets_[u];
  }
  uint64_t InDegree(NodeId v) const {
    OPIM_CHECK_LT(v, num_nodes_);
    return in_offsets_[v + 1] - in_offsets_[v];
  }

  /// Sum of incoming propagation probabilities of v. The LT model requires
  /// this to be <= 1 (paper §2.1); samplers OPIM_CHECK it.
  double InWeightSum(NodeId v) const {
    OPIM_CHECK_LT(v, num_nodes_);
    return in_weight_sum_[v];
  }

  /// Largest InWeightSum over all nodes (0 for the empty graph).
  double MaxInWeightSum() const;

 private:
  friend class GraphBuilder;
  friend class SamplingView;

  /// Rebinds the span members to the own_* vectors (heap-backed state).
  void BindOwned();

  /// Drops the memoized views (the CSR they point into is going away).
  void DropViews();

  uint32_t num_nodes_ = 0;

  // Active views; bound to own_* (heap) or into arena_ (mapped).
  std::span<const uint64_t> out_offsets_;  // n + 1
  std::span<const NodeId> out_neighbors_;  // m
  std::span<const double> out_probs_;      // m
  std::span<const uint64_t> in_offsets_;   // n + 1
  std::span<const NodeId> in_neighbors_;   // m
  std::span<const double> in_probs_;       // m
  std::span<const double> in_weight_sum_;  // n

  // Heap storage; empty when arena-backed.
  std::vector<uint64_t> own_out_offsets_;
  std::vector<NodeId> own_out_neighbors_;
  std::vector<double> own_out_probs_;
  std::vector<uint64_t> own_in_offsets_;
  std::vector<NodeId> own_in_neighbors_;
  std::vector<double> own_in_probs_;
  std::vector<double> own_in_weight_sum_;

  // Keeps mapped pages alive for arena-backed graphs; null otherwise.
  std::shared_ptr<MmapArena> arena_;

  // Memoized views, one slot per SamplingView::Parts value (kIc, kLt,
  // kBoth), built under `views_mu_` by SamplingView::For.
  mutable std::mutex views_mu_;
  mutable std::unique_ptr<const SamplingView> views_[3];
};

/// Edge-weighting schemes applied at build time when edges were added
/// without explicit probabilities.
enum class WeightScheme {
  /// Weighted-cascade: p(u, v) = 1 / in-degree(v). The setting used by the
  /// paper's experiments (§8.1) and most of the IM literature. Always
  /// LT-feasible (incoming probabilities sum to exactly 1).
  kWeightedCascade,
  /// Every edge gets the same constant probability.
  kConstant,
  /// Trivalency: each edge uniformly one of {0.1, 0.01, 0.001}.
  kTrivalency,
  /// Each edge probability uniform in (0, constant]. Scaled per node to
  /// stay LT-feasible is NOT applied; intended for IC experiments.
  kUniformRandom,
};

/// Mutable edge accumulator that produces an immutable Graph.
class GraphBuilder {
 public:
  /// Creates a builder for a graph with `num_nodes` nodes.
  explicit GraphBuilder(uint32_t num_nodes) : num_nodes_(num_nodes) {}

  /// Adds a directed edge u -> v with explicit probability p in [0, 1].
  void AddEdge(NodeId u, NodeId v, double p);

  /// Adds a directed edge whose probability will be assigned by the
  /// WeightScheme passed to Build().
  void AddEdge(NodeId u, NodeId v) { AddEdge(u, v, kUnsetProb); }

  /// Adds both u -> v and v -> u (for undirected source data, e.g. Orkut).
  void AddUndirectedEdge(NodeId u, NodeId v) {
    AddEdge(u, v);
    AddEdge(v, u);
  }

  /// Number of edges added so far.
  uint64_t num_edges() const { return from_.size(); }

  /// Builds the CSR graph. Edges added without probabilities get weights
  /// from `scheme`. `constant_p` parameterizes kConstant/kUniformRandom;
  /// `seed` parameterizes the randomized schemes. Duplicate edges are kept
  /// as parallel edges (they are rare in the generators and harmless to
  /// the samplers). The builder is left empty afterwards.
  Graph Build(WeightScheme scheme = WeightScheme::kWeightedCascade,
              double constant_p = 0.1, uint64_t seed = 1);

 private:
  static constexpr double kUnsetProb = -1.0;

  uint32_t num_nodes_;
  std::vector<NodeId> from_;
  std::vector<NodeId> to_;
  std::vector<double> prob_;
};

/// Summary statistics for a graph; reproduces the columns of the paper's
/// Table 2 plus degree extrema.
struct GraphStats {
  uint32_t num_nodes = 0;
  uint64_t num_edges = 0;
  double average_degree = 0.0;
  uint64_t max_out_degree = 0;
  uint64_t max_in_degree = 0;
  uint32_t num_sources = 0;  // nodes with in-degree 0
  uint32_t num_sinks = 0;    // nodes with out-degree 0
};

/// Computes GraphStats in O(n + m).
GraphStats ComputeStats(const Graph& g);

}  // namespace opim
