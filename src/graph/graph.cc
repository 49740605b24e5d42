#include "graph/graph.h"

#include <algorithm>
#include <utility>

#include "graph/sampling_view.h"
#include "support/mmap_arena.h"
#include "support/random.h"

namespace opim {

Graph::Graph() = default;
Graph::~Graph() = default;

void Graph::DropViews() {
  for (auto& view : views_) view.reset();
}

void Graph::BindOwned() {
  out_offsets_ = own_out_offsets_;
  out_neighbors_ = own_out_neighbors_;
  out_probs_ = own_out_probs_;
  in_offsets_ = own_in_offsets_;
  in_neighbors_ = own_in_neighbors_;
  in_probs_ = own_in_probs_;
  in_weight_sum_ = own_in_weight_sum_;
}

Graph::Graph(const Graph& other)
    : num_nodes_(other.num_nodes_),
      own_out_offsets_(other.own_out_offsets_),
      own_out_neighbors_(other.own_out_neighbors_),
      own_out_probs_(other.own_out_probs_),
      own_in_offsets_(other.own_in_offsets_),
      own_in_neighbors_(other.own_in_neighbors_),
      own_in_probs_(other.own_in_probs_),
      own_in_weight_sum_(other.own_in_weight_sum_),
      arena_(other.arena_) {
  if (arena_ != nullptr) {
    // Arena-backed: the copy shares the mapping, so the source's spans
    // stay valid in the copy.
    out_offsets_ = other.out_offsets_;
    out_neighbors_ = other.out_neighbors_;
    out_probs_ = other.out_probs_;
    in_offsets_ = other.in_offsets_;
    in_neighbors_ = other.in_neighbors_;
    in_probs_ = other.in_probs_;
    in_weight_sum_ = other.in_weight_sum_;
  } else {
    BindOwned();
  }
}

Graph& Graph::operator=(const Graph& other) {
  if (this != &other) *this = Graph(other);
  return *this;
}

Graph::Graph(Graph&& other) noexcept
    : num_nodes_(other.num_nodes_),
      out_offsets_(other.out_offsets_),
      out_neighbors_(other.out_neighbors_),
      out_probs_(other.out_probs_),
      in_offsets_(other.in_offsets_),
      in_neighbors_(other.in_neighbors_),
      in_probs_(other.in_probs_),
      in_weight_sum_(other.in_weight_sum_),
      own_out_offsets_(std::move(other.own_out_offsets_)),
      own_out_neighbors_(std::move(other.own_out_neighbors_)),
      own_out_probs_(std::move(other.own_out_probs_)),
      own_in_offsets_(std::move(other.own_in_offsets_)),
      own_in_neighbors_(std::move(other.own_in_neighbors_)),
      own_in_probs_(std::move(other.own_in_probs_)),
      own_in_weight_sum_(std::move(other.own_in_weight_sum_)),
      arena_(std::move(other.arena_)) {
  // Vector moves keep data pointers stable, so the copied spans still
  // point at live storage. Reset the source to the empty graph, dropping
  // its views (they name the source); this graph builds its own.
  other.DropViews();
  other.num_nodes_ = 0;
  other.out_offsets_ = {};
  other.out_neighbors_ = {};
  other.out_probs_ = {};
  other.in_offsets_ = {};
  other.in_neighbors_ = {};
  other.in_probs_ = {};
  other.in_weight_sum_ = {};
}

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this != &other) {
    Graph tmp(std::move(other));
    DropViews();
    num_nodes_ = tmp.num_nodes_;
    out_offsets_ = tmp.out_offsets_;
    out_neighbors_ = tmp.out_neighbors_;
    out_probs_ = tmp.out_probs_;
    in_offsets_ = tmp.in_offsets_;
    in_neighbors_ = tmp.in_neighbors_;
    in_probs_ = tmp.in_probs_;
    in_weight_sum_ = tmp.in_weight_sum_;
    own_out_offsets_ = std::move(tmp.own_out_offsets_);
    own_out_neighbors_ = std::move(tmp.own_out_neighbors_);
    own_out_probs_ = std::move(tmp.own_out_probs_);
    own_in_offsets_ = std::move(tmp.own_in_offsets_);
    own_in_neighbors_ = std::move(tmp.own_in_neighbors_);
    own_in_probs_ = std::move(tmp.own_in_probs_);
    own_in_weight_sum_ = std::move(tmp.own_in_weight_sum_);
    arena_ = std::move(tmp.arena_);
  }
  return *this;
}

Graph Graph::WrapStorage(uint32_t num_nodes, const GraphStorageView& view,
                         std::shared_ptr<MmapArena> arena) {
  Graph g;
  g.num_nodes_ = num_nodes;
  g.out_offsets_ = view.out_offsets;
  g.out_neighbors_ = view.out_neighbors;
  g.out_probs_ = view.out_probs;
  g.in_offsets_ = view.in_offsets;
  g.in_neighbors_ = view.in_neighbors;
  g.in_probs_ = view.in_probs;
  g.in_weight_sum_ = view.in_weight_sum;
  g.arena_ = std::move(arena);
  return g;
}

Graph Graph::AdoptStorage(uint32_t num_nodes,
                          std::vector<uint64_t> out_offsets,
                          std::vector<NodeId> out_neighbors,
                          std::vector<double> out_probs,
                          std::vector<uint64_t> in_offsets,
                          std::vector<NodeId> in_neighbors,
                          std::vector<double> in_probs,
                          std::vector<double> in_weight_sum) {
  Graph g;
  g.num_nodes_ = num_nodes;
  g.own_out_offsets_ = std::move(out_offsets);
  g.own_out_neighbors_ = std::move(out_neighbors);
  g.own_out_probs_ = std::move(out_probs);
  g.own_in_offsets_ = std::move(in_offsets);
  g.own_in_neighbors_ = std::move(in_neighbors);
  g.own_in_probs_ = std::move(in_probs);
  g.own_in_weight_sum_ = std::move(in_weight_sum);
  g.BindOwned();
  return g;
}

double Graph::MaxInWeightSum() const {
  double mx = 0.0;
  for (double s : in_weight_sum_) mx = std::max(mx, s);
  return mx;
}

void GraphBuilder::AddEdge(NodeId u, NodeId v, double p) {
  OPIM_CHECK_LT(u, num_nodes_);
  OPIM_CHECK_LT(v, num_nodes_);
  OPIM_CHECK_MSG(p == kUnsetProb || (p >= 0.0 && p <= 1.0),
                 "edge probability must be in [0, 1]");
  from_.push_back(u);
  to_.push_back(v);
  prob_.push_back(p);
}

Graph GraphBuilder::Build(WeightScheme scheme, double constant_p,
                          uint64_t seed) {
  const uint64_t m = from_.size();
  const uint32_t n = num_nodes_;
  Graph g;
  g.num_nodes_ = n;

  // Counting sort into CSR, both directions.
  g.own_out_offsets_.assign(n + 1, 0);
  g.own_in_offsets_.assign(n + 1, 0);
  for (uint64_t e = 0; e < m; ++e) {
    ++g.own_out_offsets_[from_[e] + 1];
    ++g.own_in_offsets_[to_[e] + 1];
  }
  for (uint32_t v = 0; v < n; ++v) {
    g.own_out_offsets_[v + 1] += g.own_out_offsets_[v];
    g.own_in_offsets_[v + 1] += g.own_in_offsets_[v];
  }

  // Assign probabilities to unset edges. Weighted cascade needs in-degrees,
  // which the offsets now provide.
  Rng rng(seed, /*stream=*/0x67726170);  // "grap"
  for (uint64_t e = 0; e < m; ++e) {
    if (prob_[e] != kUnsetProb) continue;
    switch (scheme) {
      case WeightScheme::kWeightedCascade: {
        uint64_t indeg =
            g.own_in_offsets_[to_[e] + 1] - g.own_in_offsets_[to_[e]];
        prob_[e] = 1.0 / static_cast<double>(indeg);
        break;
      }
      case WeightScheme::kConstant:
        prob_[e] = constant_p;
        break;
      case WeightScheme::kTrivalency: {
        static constexpr double kTri[3] = {0.1, 0.01, 0.001};
        prob_[e] = kTri[rng.UniformBelow(3)];
        break;
      }
      case WeightScheme::kUniformRandom:
        prob_[e] = rng.UniformDouble() * constant_p;
        break;
    }
  }

  g.own_out_neighbors_.resize(m);
  g.own_out_probs_.resize(m);
  g.own_in_neighbors_.resize(m);
  g.own_in_probs_.resize(m);
  std::vector<uint64_t> out_cursor(g.own_out_offsets_.begin(),
                                   g.own_out_offsets_.end() - 1);
  std::vector<uint64_t> in_cursor(g.own_in_offsets_.begin(),
                                  g.own_in_offsets_.end() - 1);
  for (uint64_t e = 0; e < m; ++e) {
    uint64_t oi = out_cursor[from_[e]]++;
    g.own_out_neighbors_[oi] = to_[e];
    g.own_out_probs_[oi] = prob_[e];
    uint64_t ii = in_cursor[to_[e]]++;
    g.own_in_neighbors_[ii] = from_[e];
    g.own_in_probs_[ii] = prob_[e];
  }

  g.own_in_weight_sum_.assign(n, 0.0);
  for (uint32_t v = 0; v < n; ++v) {
    double s = 0.0;
    for (uint64_t i = g.own_in_offsets_[v]; i < g.own_in_offsets_[v + 1]; ++i) {
      s += g.own_in_probs_[i];
    }
    g.own_in_weight_sum_[v] = s;
  }

  from_.clear();
  to_.clear();
  prob_.clear();
  from_.shrink_to_fit();
  to_.shrink_to_fit();
  prob_.shrink_to_fit();
  g.BindOwned();
  return g;
}

GraphStats ComputeStats(const Graph& g) {
  GraphStats s;
  s.num_nodes = g.num_nodes();
  s.num_edges = g.num_edges();
  s.average_degree = g.average_degree();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    uint64_t od = g.OutDegree(v);
    uint64_t id = g.InDegree(v);
    s.max_out_degree = std::max(s.max_out_degree, od);
    s.max_in_degree = std::max(s.max_in_degree, id);
    if (id == 0) ++s.num_sources;
    if (od == 0) ++s.num_sinks;
  }
  return s;
}

}  // namespace opim
