#include "rrset/rr_sampler.h"

#include <bit>
#include <utility>

#include "obs/telemetry.h"

namespace opim {

SamplingView::Parts SamplingViewPartsFor(DiffusionModel model) {
  switch (model) {
    case DiffusionModel::kIndependentCascade:
      return SamplingView::Parts::kIc;
    case DiffusionModel::kLinearThreshold:
      return SamplingView::Parts::kLt;
  }
  return SamplingView::Parts::kBoth;
}

void RRSampler::Generate(RRCollection* collection, uint64_t count, Rng& rng) {
  if (count == 0) return;
  // Each set is sorted and compressed the moment it is sampled (members
  // still cache-hot), and ingestion is one shard-merge.
  ShardEncoder encoder;
  std::vector<NodeId> scratch;
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t cost = SampleInto(rng, &scratch);
    encoder.Add(&scratch, cost);
  }
  std::vector<CompressedRRShard> shards;
  shards.push_back(encoder.Finish(graph().num_nodes()));
  collection->AddCompressedShards(std::move(shards));
}

namespace {

/// Builds the (possibly empty) weighted-root alias table, validating size.
AliasSampler MakeRootSampler(const Graph& g,
                             std::span<const double> root_weights) {
  if (root_weights.empty()) return AliasSampler();
  OPIM_CHECK_EQ(root_weights.size(), g.num_nodes());
  return AliasSampler(
      std::vector<double>(root_weights.begin(), root_weights.end()));
}

NodeId PickRoot(const Graph& g, const AliasSampler* root, Rng& rng) {
  if (root == nullptr) return rng.UniformBelow(g.num_nodes());
  return root->Sample(rng);
}

}  // namespace

IcRRSampler::IcRRSampler(const Graph& g, std::span<const double> root_weights)
    : view_(&SamplingView::For(g, SamplingView::Parts::kIc)),
      owned_root_(MakeRootSampler(g, root_weights)),
      root_(owned_root_.empty() ? nullptr : &owned_root_),
      visited_epoch_(g.num_nodes(), 0) {}

IcRRSampler::IcRRSampler(const SamplingView& view,
                         const AliasSampler* shared_root)
    : view_(&view),
      root_(shared_root != nullptr && !shared_root->empty() ? shared_root
                                                            : nullptr),
      visited_epoch_(view.graph().num_nodes(), 0) {
  OPIM_CHECK_MSG(view.has_ic(), "SamplingView lacks the IC part");
}

namespace {

/// Expands one IC member's traversed edges in reverse-CSR order, calling
/// `visit` on every live in-neighbor: no draw per edge for kKeepAll,
/// Geometric(p) jumps for kSkip, one threshold compare per edge for
/// kPerEdge. `nbr_at(i)` / `rej_at(i)` read edge i, so one body serves
/// nodes read from the graph and nodes read from the side arena.
template <typename NbrAt, typename RejAt, typename Visit>
inline void ExpandIcNode(SamplingView::IcNodeKind kind, uint32_t count,
                         uint64_t param, NbrAt nbr_at, RejAt rej_at, Rng& rng,
                         Visit visit) {
  switch (kind) {
    case SamplingView::IcNodeKind::kEmpty:
      break;
    case SamplingView::IcNodeKind::kKeepAll:
      for (uint32_t i = 0; i < count; ++i) visit(nbr_at(i));
      break;
    case SamplingView::IcNodeKind::kSkip: {
      // Uniform p: the gap to the next live edge is Geometric(p), so jump
      // straight to it — expected p·deg + 1 draws instead of deg.
      const double inv = std::bit_cast<double>(param);
      for (uint64_t j = rng.GeometricSkip(inv); j < count;) {
        visit(nbr_at(static_cast<uint32_t>(j)));
        const uint64_t gap = rng.GeometricSkip(inv);
        if (gap >= count - j - 1) break;  // next live edge is past the end
        j += gap + 1;
      }
      break;
    }
    case SamplingView::IcNodeKind::kPerEdge:
      // Flip the coin before touching the visited array: a rejected edge
      // (the common case) then costs one sequential load and one draw,
      // never a random access into the n-sized epoch array.
      for (uint32_t i = 0; i < count; ++i) {
        if (rng.NextU32() < rej_at(i)) continue;
        visit(nbr_at(i));
      }
      break;
  }
}

}  // namespace

uint64_t IcRRSampler::SampleInto(Rng& rng, std::vector<NodeId>* out) {
  const SamplingView& view = *view_;
  const Graph& g = view.graph();
  out->clear();
  ++epoch_;
  if (epoch_ == 0) {
    std::fill(visited_epoch_.begin(), visited_epoch_.end(), 0);
    epoch_ = 1;
  }

  uint32_t* const visited = visited_epoch_.data();
  const uint32_t epoch = epoch_;
  const SamplingView::IcNode* const nodes = view.IcNodeData();
  const SamplingView::IcEdge* const side = view.IcSideData();
  const NodeId* const graph_nbrs = view.InNeighborData();

  // Refill the root lookahead ring: draw a block of roots and prefetch
  // their visited slots and records, so that by the time each one is
  // sampled its two random cache lines are already resident.
  if (ring_pos_ == kRootLookahead) {
    for (uint32_t i = 0; i < kRootLookahead; ++i) {
      const NodeId r = PickRoot(g, root_, rng);
      root_ring_[i] = r;
      __builtin_prefetch(visited + r, 1);
      __builtin_prefetch(nodes + r);
    }
    OPIM_TM_STMT(alias_draws_ += root_ == nullptr ? 0 : kRootLookahead);
    ring_pos_ = 0;
  }
  const NodeId root = root_ring_[ring_pos_++];
  visited[root] = epoch;
  out->push_back(root);
  uint64_t edges_examined = 0;

  // `out` doubles as the BFS frontier: members in visit order are exactly
  // the RR set, so `head` walks the output vector while it grows.
  std::vector<NodeId>& frontier = *out;
  const auto visit = [&](NodeId w) {
    if (visited[w] == epoch) return;
    visited[w] = epoch;
    // Fetch the new member's record while the current node's remaining
    // edges are processed; by the time `head` reaches it the load has
    // left the critical path.
    __builtin_prefetch(nodes + w);
    frontier.push_back(w);
  };
  // Each member costs one 16-byte record load and one run through its
  // neighbors: the graph's reverse CSR for uniform nodes, its side-arena
  // {neighbor, reject} pairs for explicit ones.
  for (size_t head = 0; head < frontier.size(); ++head) {
    const SamplingView::IcNode m = nodes[frontier[head]];
    // The cost contract charges the *full* in-degree of every member,
    // even though p <= 0 edges are never traversed and skipping elides
    // draws.
    const uint32_t indeg = m.indeg_kind >> SamplingView::kIcDegreeShift;
    edges_examined += indeg;
    const auto kind = static_cast<SamplingView::IcNodeKind>(
        m.indeg_kind & SamplingView::kIcKindMask);
    if ((m.indeg_kind & SamplingView::kIcExplicit) == 0) {
      const NodeId* const nbrs = graph_nbrs + m.offset;
      const auto rej = static_cast<uint32_t>(m.param);
      ExpandIcNode(
          kind, indeg, m.param, [nbrs](uint32_t i) { return nbrs[i]; },
          [rej](uint32_t) { return rej; }, rng, visit);
    } else {
      const SamplingView::IcEdge* const run = side + m.offset;
      const SamplingView::IcEdge* const edges = run + 1;
      ExpandIcNode(
          kind, run->nbr, m.param, [edges](uint32_t i) { return edges[i].nbr; },
          [edges](uint32_t i) { return edges[i].rej; }, rng, visit);
    }
  }
  return edges_examined;
}

LtRRSampler::LtRRSampler(const Graph& g, std::span<const double> root_weights)
    : view_(&SamplingView::For(g, SamplingView::Parts::kLt)),
      owned_root_(MakeRootSampler(g, root_weights)),
      root_(owned_root_.empty() ? nullptr : &owned_root_),
      visited_epoch_(g.num_nodes(), 0) {}

LtRRSampler::LtRRSampler(const SamplingView& view,
                         const AliasSampler* shared_root)
    : view_(&view),
      root_(shared_root != nullptr && !shared_root->empty() ? shared_root
                                                            : nullptr),
      visited_epoch_(view.graph().num_nodes(), 0) {
  OPIM_CHECK_MSG(view.has_lt(), "SamplingView lacks the LT part");
}

uint64_t LtRRSampler::SampleInto(Rng& rng, std::vector<NodeId>* out) {
  const SamplingView& view = *view_;
  const Graph& g = view.graph();
  out->clear();
  ++epoch_;
  if (epoch_ == 0) {
    std::fill(visited_epoch_.begin(), visited_epoch_.end(), 0);
    epoch_ = 1;
  }

  uint32_t* const visited = visited_epoch_.data();
  const uint32_t epoch = epoch_;
  const SamplingView::LtNode* const nodes = view.LtNodeData();
  const SamplingView::LtBucket* const side = view.LtSideData();
  const NodeId* const graph_nbrs = view.InNeighborData();

  // Root lookahead, as in the IC kernel: block-draw and prefetch.
  if (ring_pos_ == kRootLookahead) {
    for (uint32_t i = 0; i < kRootLookahead; ++i) {
      const NodeId r = PickRoot(g, root_, rng);
      root_ring_[i] = r;
      __builtin_prefetch(visited + r, 1);
      __builtin_prefetch(nodes + r);
    }
    OPIM_TM_STMT(alias_draws_ += root_ == nullptr ? 0 : kRootLookahead);
    ring_pos_ = 0;
  }
  NodeId u = root_ring_[ring_pos_++];
  uint64_t edges_examined = 0;
  // Each step costs one 16-byte record load (offset, degree, stop
  // threshold) and one neighbor load: straight from the graph's reverse
  // CSR for uniform nodes, a resolved alias bucket for explicit ones.
  for (;;) {
    if (visited[u] == epoch) break;  // walk closed a cycle
    visited[u] = epoch;
    out->push_back(u);
    const SamplingView::LtNode m = nodes[u];
    const uint32_t d = m.degree;
    edges_examined += d;
    if (m.stop_rej == SamplingView::kAlwaysReject) break;  // no stay mass
    // Saturated nodes (Σ p = 1, e.g. weighted cascade) have stop_rej == 0
    // and never spend a draw on the stop decision.
    if (m.stop_rej != 0 && rng.NextU32() < m.stop_rej) break;  // walk stops
    const uint32_t pick = d == 1 ? 0 : rng.UniformBelow(d);
    if (m.explicit_buckets == 0) {
      // Equal in-weights: every alias bucket would be full, keeping its
      // own neighbor, so the step is a uniform in-neighbor.
      u = graph_nbrs[m.offset + pick];
    } else {
      const SamplingView::LtBucket b = side[m.offset + pick];
      // Full buckets (rej == 0) keep their own neighbor without a draw.
      u = (b.rej != 0 && rng.NextU32() < b.rej) ? b.alias : b.keep;
    }
    OPIM_TM_STMT(++alias_draws_);
  }
  return edges_examined;
}

std::unique_ptr<RRSampler> MakeRRSampler(
    const Graph& g, DiffusionModel model,
    std::span<const double> root_weights) {
  switch (model) {
    case DiffusionModel::kIndependentCascade:
      return std::make_unique<IcRRSampler>(g, root_weights);
    case DiffusionModel::kLinearThreshold:
      return std::make_unique<LtRRSampler>(g, root_weights);
  }
  return nullptr;
}

std::unique_ptr<RRSampler> MakeRRSampler(
    const SamplingView& view, DiffusionModel model,
    const AliasSampler* shared_root) {
  switch (model) {
    case DiffusionModel::kIndependentCascade:
      return std::make_unique<IcRRSampler>(view, shared_root);
    case DiffusionModel::kLinearThreshold:
      return std::make_unique<LtRRSampler>(view, shared_root);
  }
  return nullptr;
}

}  // namespace opim
