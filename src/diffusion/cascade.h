// Forward simulation of influence cascades under the IC and LT models
// (paper §2.1), plus a multithreaded Monte-Carlo estimator of the expected
// spread σ(S). The paper evaluates returned seed sets with 10,000 MC
// simulations (§8.1); SpreadEstimator is that evaluator.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "support/random.h"

namespace opim {

/// The two diffusion models studied by the paper. Both are instances of
/// the triggering model of Kempe et al.
enum class DiffusionModel {
  /// Independent cascade: a newly activated u activates each inactive
  /// out-neighbor v independently with probability p(u, v), once.
  kIndependentCascade,
  /// Linear threshold: v has threshold λ_v ~ U[0, 1]; v activates when the
  /// summed weight of its activated in-neighbors reaches λ_v. Requires
  /// incoming weights to sum to at most 1 per node.
  kLinearThreshold,
};

/// Returns "IC" / "LT".
const char* DiffusionModelName(DiffusionModel model);

/// Simulates one cascade from `seeds` and returns the number of activated
/// nodes (including the seeds; duplicate seeds count once). If `activated`
/// is non-null it receives the activated nodes in activation order.
///
/// Allocates per call; for repeated simulation use CascadeSimulator.
uint32_t SimulateCascade(const Graph& g, DiffusionModel model,
                         std::span<const NodeId> seeds, Rng& rng,
                         std::vector<NodeId>* activated = nullptr);

/// Reusable cascade simulator: owns epoch-stamped scratch so repeated runs
/// do not reallocate or clear O(n) state. Not thread-safe; use one per
/// thread.
class CascadeSimulator {
 public:
  explicit CascadeSimulator(const Graph& g);

  /// Runs one cascade and returns the activated count.
  uint32_t Run(DiffusionModel model, std::span<const NodeId> seeds, Rng& rng,
               std::vector<NodeId>* activated = nullptr);

 private:
  uint32_t RunIc(std::span<const NodeId> seeds, Rng& rng,
                 std::vector<NodeId>* activated);
  uint32_t RunLt(std::span<const NodeId> seeds, Rng& rng,
                 std::vector<NodeId>* activated);

  const Graph& graph_;
  uint32_t epoch_ = 0;
  std::vector<uint32_t> visited_epoch_;   // activation stamp per node
  std::vector<uint32_t> touched_epoch_;   // LT: threshold-drawn stamp
  std::vector<double> threshold_;         // LT: λ_v for the current run
  std::vector<double> accumulated_;       // LT: activated in-weight so far
  std::vector<NodeId> frontier_;
  std::vector<NodeId> next_frontier_;
};

/// Monte-Carlo estimator of σ(S). Deterministic for a fixed (seed,
/// num_threads) pair: each simulation index gets a derived RNG stream.
class SpreadEstimator {
 public:
  /// `num_threads` = 0 picks the hardware default.
  SpreadEstimator(const Graph& g, DiffusionModel model,
                  unsigned num_threads = 0);
  ~SpreadEstimator();

  OPIM_DISALLOW_COPY(SpreadEstimator);

  /// Averages `num_samples` cascade sizes from `seeds`: the mean of
  /// EstimateWithError.
  double Estimate(std::span<const NodeId> seeds, uint64_t num_samples,
                  uint64_t seed = 1) const;

  /// Weighted variant: averages Σ_{v activated} node_weights[v] — the
  /// weighted spread σ_w(S). `node_weights` must have one entry per node.
  double EstimateWeighted(std::span<const NodeId> seeds,
                          std::span<const double> node_weights,
                          uint64_t num_samples, uint64_t seed = 1) const;

  /// Point estimate with a CLT standard error, for reporting confidence
  /// intervals (mean ± z·stderr).
  struct EstimateResult {
    double mean = 0.0;
    double stderr_ = 0.0;  // sample std / sqrt(num_samples)
    uint64_t num_samples = 0;
  };

  /// Like Estimate() but also returns the standard error of the mean.
  EstimateResult EstimateWithError(std::span<const NodeId> seeds,
                                   uint64_t num_samples,
                                   uint64_t seed = 1) const;

 private:
  const Graph& graph_;
  DiffusionModel model_;
  unsigned num_threads_;
};

}  // namespace opim
