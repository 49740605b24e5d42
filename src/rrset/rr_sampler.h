// Random RR-set samplers for the IC and LT models (paper Appendix A).
//
// IC: pick a uniform root v, run a stochastic *reverse* BFS — each incoming
// edge <w, u> of a traversed node u is kept with probability p(w, u) — and
// return every traversed node.
//
// LT: pick a uniform root v, then walk backwards: from the current node u,
// stop with probability 1 - Σ_w p(w, u), otherwise move to one in-neighbor
// w chosen with probability p(w, u). The walk also stops on revisiting a
// node (at most one in-neighbor can activate u under LT). Per-step neighbor
// choice is O(1) with Walker's alias method (paper [42]) after O(n + m)
// preprocessing.
//
// Both kernels run off a SamplingView (graph/sampling_view.h): quantized
// 32-bit edge thresholds instead of double compares, geometric skipping
// over high-degree uniform-probability nodes, and alias buckets for the
// LT walk — with uniform-probability nodes read straight from the graph's
// reverse CSR. A sampler either owns a private view (the Graph
// constructors, convenient for one-off use) or borrows a caller-owned one
// (the SamplingView constructors) so that parallel shards and repeated
// doublings share one read-only preprocessing pass.
//
// Both samplers report an `edges_examined` traversal cost per sample: the
// total in-degree of the nodes placed in the RR set. For the IC reverse
// BFS this is exactly the number of edge coin-flips of the unskipped
// kernel; it is the γ that Borgs et al.'s OPIM bound consumes (§3.2) and
// the "width" of TIM/IMM.

#pragma once

#include <array>
#include <memory>
#include <vector>

#include "diffusion/cascade.h"
#include "graph/graph.h"
#include "graph/sampling_view.h"
#include "rrset/rr_collection.h"
#include "support/alias_sampler.h"
#include "support/random.h"

namespace opim {

/// The SamplingView part a sampler for `model` consumes.
SamplingView::Parts SamplingViewPartsFor(DiffusionModel model);

/// Abstract RR-set sampler. Implementations are stateful (they own scratch
/// and preprocessing) but logically const per sample; not thread-safe.
///
/// Roots are drawn ahead in blocks of kRootLookahead and their per-node
/// records prefetched: a typical sample touches only a couple of random
/// cache lines, and the root's are the ones nothing can overlap — unless
/// they were requested a dozen samples early. Consequence: the RNG stream
/// interleaves block-of-root draws with per-sample expansion draws. It is
/// still a pure function of the seed (the block schedule is fixed), but
/// the draws for sample i are no longer contiguous.
class RRSampler {
 public:
  /// Roots drawn (and prefetched) ahead per block.
  static constexpr uint32_t kRootLookahead = 16;

  virtual ~RRSampler() = default;

  /// Samples one RR set into `out` (cleared first; distinct nodes, root
  /// included) and returns the traversal cost in edges examined.
  virtual uint64_t SampleInto(Rng& rng, std::vector<NodeId>* out) = 0;

  /// Samples `count` RR sets and appends them to `collection` through the
  /// compressed-shard ingest path (one shard, one index merge).
  void Generate(RRCollection* collection, uint64_t count, Rng& rng);

  /// The graph being sampled.
  virtual const Graph& graph() const = 0;

  /// Lifetime count of alias-table draws (weighted roots + LT walk steps).
  /// Only maintained in telemetry builds; reads 0 otherwise.
  uint64_t alias_draws() const { return alias_draws_; }

 protected:
  uint64_t alias_draws_ = 0;
};

/// IC-model sampler: stochastic reverse BFS.
///
/// The optional `root_weights` (one non-negative weight per node) selects
/// the RR-set root with probability proportional to weight instead of
/// uniformly — the standard weighted-RIS generalization: with total
/// weight W, W·Pr[S ∩ R ≠ ∅] estimates the *weighted* spread
/// σ_w(S) = Σ_v w_v·Pr[S activates v] (Lemma 3.1 with importance-weighted
/// roots). Pass W as the `scale` of the bounds/ functions.
class IcRRSampler final : public RRSampler {
 public:
  /// Owns a private SamplingView built from `g` (IC part only).
  explicit IcRRSampler(const Graph& g,
                       std::span<const double> root_weights = {});

  /// Borrows caller-owned shared state: `view` (IC part required, checked)
  /// and optionally `shared_root` (weighted roots; nullptr or empty =>
  /// uniform). Both must outlive the sampler.
  explicit IcRRSampler(const SamplingView& view,
                       const AliasSampler* shared_root = nullptr);

  uint64_t SampleInto(Rng& rng, std::vector<NodeId>* out) override;
  const Graph& graph() const override { return view_->graph(); }

 private:
  std::unique_ptr<const SamplingView> owned_view_;
  const SamplingView* view_;
  AliasSampler owned_root_;
  const AliasSampler* root_ = nullptr;  // nullptr => uniform roots
  uint32_t epoch_ = 0;
  std::array<NodeId, kRootLookahead> root_ring_;
  uint32_t ring_pos_ = kRootLookahead;  // empty: refill on next sample
  // The caller's output vector doubles as the BFS frontier, so the sampler
  // needs no queue of its own.
  std::vector<uint32_t> visited_epoch_;
};

/// LT-model sampler: reverse random walk over the view's per-node records
/// (one quantized stop threshold + one in-neighbor or alias bucket lookup
/// per step).
class LtRRSampler final : public RRSampler {
 public:
  /// Owns a private SamplingView built from `g` (LT part only;
  /// `root_weights` as for IcRRSampler).
  explicit LtRRSampler(const Graph& g,
                       std::span<const double> root_weights = {});

  /// Borrows caller-owned shared state (LT part required, checked).
  explicit LtRRSampler(const SamplingView& view,
                       const AliasSampler* shared_root = nullptr);

  uint64_t SampleInto(Rng& rng, std::vector<NodeId>* out) override;
  const Graph& graph() const override { return view_->graph(); }

 private:
  std::unique_ptr<const SamplingView> owned_view_;
  const SamplingView* view_;
  AliasSampler owned_root_;
  const AliasSampler* root_ = nullptr;  // nullptr => uniform roots
  uint32_t epoch_ = 0;
  std::array<NodeId, kRootLookahead> root_ring_;
  uint32_t ring_pos_ = kRootLookahead;  // empty: refill on next sample
  std::vector<uint32_t> visited_epoch_;
};

/// Factory keyed on the diffusion model. `root_weights` non-empty selects
/// weighted-spread sampling (see IcRRSampler).
std::unique_ptr<RRSampler> MakeRRSampler(
    const Graph& g, DiffusionModel model,
    std::span<const double> root_weights = {});

/// Shared-state factory: the sampler borrows `view` (which must have the
/// part for `model` built) and, when non-null and non-empty, `shared_root`.
/// Use this to amortize preprocessing across shards / doublings.
std::unique_ptr<RRSampler> MakeRRSampler(
    const SamplingView& view, DiffusionModel model,
    const AliasSampler* shared_root = nullptr);

}  // namespace opim
