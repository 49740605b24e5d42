#include "rrset/rr_sampler.h"

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
    : owned_view_(std::make_unique<const SamplingView>(
          g, SamplingView::Parts::kIc)),
      view_(owned_view_.get()),
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
  const SamplingView::IcNodeMeta* const meta = view.IcMetaData();
  const SamplingView::IcEdge* const all_edges = view.IcEdgeData();

  // Refill the root lookahead ring: draw a block of roots and prefetch
  // their visited slots and packed records, so that by the time each one
  // is sampled its two random cache lines are already resident.
  if (ring_pos_ == kRootLookahead) {
    for (uint32_t i = 0; i < kRootLookahead; ++i) {
      const NodeId r = PickRoot(g, root_, rng);
      root_ring_[i] = r;
      __builtin_prefetch(visited + r, 1);
      __builtin_prefetch(meta + r);
    }
    OPIM_TM_STMT(alias_draws_ += root_ == nullptr ? 0 : kRootLookahead);
    ring_pos_ = 0;
  }
  const NodeId root = root_ring_[ring_pos_++];
  visited[root] = epoch;
  out->push_back(root);
  uint64_t edges_examined = 0;

  // `out` doubles as the BFS frontier: members in visit order are exactly
  // the RR set, so `head` walks the output vector while it grows. Each
  // member costs one packed-meta load (offset + full in-degree + kind) and
  // one run through its interleaved {neighbor, reject} pairs.
  std::vector<NodeId>& frontier = *out;
  for (size_t head = 0; head < frontier.size(); ++head) {
    const NodeId u = frontier[head];
    const SamplingView::IcNodeMeta m = meta[u];
    // The cost contract charges the *full* in-degree of every member, even
    // though the view compacts away p <= 0 edges and skipping elides draws.
    edges_examined += m.indeg_kind >> 2;
    const SamplingView::IcEdge* const edges = all_edges + m.offset;
    const uint32_t kept = meta[u + 1].offset - m.offset;
    switch (static_cast<SamplingView::IcNodeKind>(m.indeg_kind & 3u)) {
      case SamplingView::IcNodeKind::kEmpty:
        break;
      case SamplingView::IcNodeKind::kKeepAll:
        for (uint32_t i = 0; i < kept; ++i) {
          const NodeId w = edges[i].nbr;
          if (visited[w] == epoch) continue;
          visited[w] = epoch;
          // Fetch the new member's packed record while the current node's
          // remaining edges are processed; by the time `head` reaches it
          // the load has left the critical path.
          __builtin_prefetch(meta + w);
          frontier.push_back(w);
        }
        break;
      case SamplingView::IcNodeKind::kSkip: {
        // Uniform p: the gap to the next live edge is Geometric(p), so jump
        // straight to it — expected p·deg + 1 draws instead of deg.
        const double inv = view.IcSkipInvLog(u);
        for (uint64_t j = rng.GeometricSkip(inv); j < kept;) {
          const NodeId w = edges[j].nbr;
          if (visited[w] != epoch) {
            visited[w] = epoch;
            __builtin_prefetch(meta + w);
            frontier.push_back(w);
          }
          const uint64_t gap = rng.GeometricSkip(inv);
          if (gap >= kept - j - 1) break;  // next live edge is past the end
          j += gap + 1;
        }
        break;
      }
      case SamplingView::IcNodeKind::kPerEdge: {
        // Flip the coin before touching the visited array: a rejected edge
        // (the common case) then costs one sequential pair load and one
        // draw, never a random access into the n-sized epoch array.
        for (uint32_t i = 0; i < kept; ++i) {
          if (rng.NextU32() < edges[i].rej) continue;
          const NodeId w = edges[i].nbr;
          if (visited[w] == epoch) continue;
          visited[w] = epoch;
          __builtin_prefetch(meta + w);
          frontier.push_back(w);
        }
        break;
      }
    }
  }
  return edges_examined;
}

LtRRSampler::LtRRSampler(const Graph& g, std::span<const double> root_weights)
    : owned_view_(std::make_unique<const SamplingView>(
          g, SamplingView::Parts::kLt)),
      view_(owned_view_.get()),
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
  const SamplingView::LtNodeMeta* const meta = view.LtMetaData();
  const SamplingView::LtBucket* const buckets = view.LtBucketData();

  // Root lookahead, as in the IC kernel: block-draw and prefetch.
  if (ring_pos_ == kRootLookahead) {
    for (uint32_t i = 0; i < kRootLookahead; ++i) {
      const NodeId r = PickRoot(g, root_, rng);
      root_ring_[i] = r;
      __builtin_prefetch(visited + r, 1);
      __builtin_prefetch(meta + r);
    }
    OPIM_TM_STMT(alias_draws_ += root_ == nullptr ? 0 : kRootLookahead);
    ring_pos_ = 0;
  }
  NodeId u = root_ring_[ring_pos_++];
  uint64_t edges_examined = 0;
  // Each step costs one packed-meta load (offset + stop threshold, with
  // in-degree as the offset delta) and one resolved bucket load — the
  // walk never touches the Graph adjacency arrays.
  for (;;) {
    if (visited[u] == epoch) break;  // walk closed a cycle
    visited[u] = epoch;
    out->push_back(u);
    const SamplingView::LtNodeMeta m = meta[u];
    const uint32_t d = meta[u + 1].offset - m.offset;
    edges_examined += d;
    if (m.stop_rej == SamplingView::kAlwaysReject) break;  // no stay mass
    // Saturated nodes (Σ p = 1, e.g. weighted cascade) have stop_rej == 0
    // and never spend a draw on the stop decision.
    if (m.stop_rej != 0 && rng.NextU32() < m.stop_rej) break;  // walk stops
    const uint32_t pick = d == 1 ? 0 : rng.UniformBelow(d);
    const SamplingView::LtBucket b = buckets[m.offset + pick];
    // Full buckets (rej == 0) keep their own neighbor without a draw.
    u = (b.rej != 0 && rng.NextU32() < b.rej) ? b.alias : b.keep;
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
