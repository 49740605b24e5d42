#include "diffusion/cascade.h"

#include <atomic>
#include <cmath>

#include "support/thread_pool.h"

namespace opim {

const char* DiffusionModelName(DiffusionModel model) {
  switch (model) {
    case DiffusionModel::kIndependentCascade:
      return "IC";
    case DiffusionModel::kLinearThreshold:
      return "LT";
  }
  return "?";
}

uint32_t SimulateCascade(const Graph& g, DiffusionModel model,
                         std::span<const NodeId> seeds, Rng& rng,
                         std::vector<NodeId>* activated) {
  CascadeSimulator sim(g);
  return sim.Run(model, seeds, rng, activated);
}

CascadeSimulator::CascadeSimulator(const Graph& g)
    : graph_(g),
      visited_epoch_(g.num_nodes(), 0),
      touched_epoch_(g.num_nodes(), 0),
      threshold_(g.num_nodes(), 0.0),
      accumulated_(g.num_nodes(), 0.0) {}

uint32_t CascadeSimulator::Run(DiffusionModel model,
                               std::span<const NodeId> seeds, Rng& rng,
                               std::vector<NodeId>* activated) {
  ++epoch_;
  if (epoch_ == 0) {  // wrapped: reset stamps
    std::fill(visited_epoch_.begin(), visited_epoch_.end(), 0);
    std::fill(touched_epoch_.begin(), touched_epoch_.end(), 0);
    epoch_ = 1;
  }
  if (activated != nullptr) activated->clear();
  switch (model) {
    case DiffusionModel::kIndependentCascade:
      return RunIc(seeds, rng, activated);
    case DiffusionModel::kLinearThreshold:
      return RunLt(seeds, rng, activated);
  }
  return 0;
}

uint32_t CascadeSimulator::RunIc(std::span<const NodeId> seeds, Rng& rng,
                                 std::vector<NodeId>* activated) {
  frontier_.clear();
  uint32_t count = 0;
  for (NodeId s : seeds) {
    OPIM_CHECK_LT(s, graph_.num_nodes());
    if (visited_epoch_[s] == epoch_) continue;
    visited_epoch_[s] = epoch_;
    frontier_.push_back(s);
    if (activated != nullptr) activated->push_back(s);
    ++count;
  }
  while (!frontier_.empty()) {
    next_frontier_.clear();
    for (NodeId u : frontier_) {
      auto nbrs = graph_.OutNeighbors(u);
      auto probs = graph_.OutProbs(u);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        NodeId v = nbrs[i];
        if (visited_epoch_[v] == epoch_) continue;
        if (!rng.Bernoulli(probs[i])) continue;
        visited_epoch_[v] = epoch_;
        next_frontier_.push_back(v);
        if (activated != nullptr) activated->push_back(v);
        ++count;
      }
    }
    frontier_.swap(next_frontier_);
  }
  return count;
}

uint32_t CascadeSimulator::RunLt(std::span<const NodeId> seeds, Rng& rng,
                                 std::vector<NodeId>* activated) {
  frontier_.clear();
  uint32_t count = 0;
  for (NodeId s : seeds) {
    OPIM_CHECK_LT(s, graph_.num_nodes());
    if (visited_epoch_[s] == epoch_) continue;
    visited_epoch_[s] = epoch_;
    frontier_.push_back(s);
    if (activated != nullptr) activated->push_back(s);
    ++count;
  }
  while (!frontier_.empty()) {
    next_frontier_.clear();
    for (NodeId u : frontier_) {
      auto nbrs = graph_.OutNeighbors(u);
      auto probs = graph_.OutProbs(u);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        NodeId v = nbrs[i];
        if (visited_epoch_[v] == epoch_) continue;
        // Draw v's threshold lazily on first touch this run.
        if (touched_epoch_[v] != epoch_) {
          touched_epoch_[v] = epoch_;
          threshold_[v] = rng.UniformDouble();
          accumulated_[v] = 0.0;
        }
        accumulated_[v] += probs[i];
        if (accumulated_[v] >= threshold_[v]) {
          visited_epoch_[v] = epoch_;
          next_frontier_.push_back(v);
          if (activated != nullptr) activated->push_back(v);
          ++count;
        }
      }
    }
    frontier_.swap(next_frontier_);
  }
  return count;
}

SpreadEstimator::SpreadEstimator(const Graph& g, DiffusionModel model,
                                 unsigned num_threads)
    : graph_(g),
      model_(model),
      num_threads_(num_threads == 0 ? ThreadPool::DefaultThreadCount()
                                    : num_threads) {}

SpreadEstimator::~SpreadEstimator() = default;

double SpreadEstimator::Estimate(std::span<const NodeId> seeds,
                                 uint64_t num_samples, uint64_t seed) const {
  return EstimateWithError(seeds, num_samples, seed).mean;
}

SpreadEstimator::EstimateResult SpreadEstimator::EstimateWithError(
    std::span<const NodeId> seeds, uint64_t num_samples,
    uint64_t seed) const {
  EstimateResult result;
  result.num_samples = num_samples;
  if (num_samples == 0 || graph_.num_nodes() == 0) return result;

  // Shard simulations over threads; each shard owns a simulator and an RNG
  // stream derived from (seed, shard), so results are deterministic for a
  // fixed thread count. Cascade sizes are summed as integers, so the mean
  // is exact whatever the order of the additions.
  const unsigned shards = static_cast<unsigned>(
      std::min<uint64_t>(num_samples, num_threads_));
  std::vector<uint64_t> sum(shards, 0);
  std::vector<double> sumsq(shards, 0.0);
  auto run_shard = [&](uint64_t s) {
    CascadeSimulator sim(graph_);
    Rng rng(seed, 0x73696d00ULL + s);  // "sim"+shard
    const uint64_t lo = num_samples * s / shards;
    const uint64_t hi = num_samples * (s + 1) / shards;
    uint64_t total = 0;
    double total_sq = 0.0;
    for (uint64_t i = lo; i < hi; ++i) {
      const uint64_t x = sim.Run(model_, seeds, rng);
      total += x;
      total_sq += static_cast<double>(x) * static_cast<double>(x);
    }
    sum[s] = total;
    sumsq[s] = total_sq;
  };
  ThreadPool(shards).ParallelFor(shards, run_shard);

  uint64_t total = 0;
  double total_sq = 0.0;
  for (unsigned s = 0; s < shards; ++s) {
    total += sum[s];
    total_sq += sumsq[s];
  }
  const double mean =
      static_cast<double>(total) / static_cast<double>(num_samples);
  result.mean = mean;
  if (num_samples > 1) {
    double var = (total_sq - num_samples * mean * mean) /
                 static_cast<double>(num_samples - 1);
    result.stderr_ = std::sqrt(std::max(var, 0.0) /
                               static_cast<double>(num_samples));
  }
  return result;
}

double SpreadEstimator::EstimateWeighted(std::span<const NodeId> seeds,
                                         std::span<const double> node_weights,
                                         uint64_t num_samples,
                                         uint64_t seed) const {
  OPIM_CHECK_EQ(node_weights.size(), graph_.num_nodes());
  if (num_samples == 0 || graph_.num_nodes() == 0) return 0.0;

  const unsigned shards = static_cast<unsigned>(
      std::min<uint64_t>(num_samples, num_threads_));
  std::vector<double> partial(shards, 0.0);
  auto run_shard = [&](uint64_t s) {
    CascadeSimulator sim(graph_);
    Rng rng(seed, 0x77736d00ULL + s);  // "wsm"+shard
    uint64_t lo = num_samples * s / shards;
    uint64_t hi = num_samples * (s + 1) / shards;
    std::vector<NodeId> activated;
    double total = 0.0;
    for (uint64_t i = lo; i < hi; ++i) {
      sim.Run(model_, seeds, rng, &activated);
      for (NodeId v : activated) total += node_weights[v];
    }
    partial[s] = total;
  };

  ThreadPool(shards).ParallelFor(shards, run_shard);
  double total = 0.0;
  for (double p : partial) total += p;
  return total / static_cast<double>(num_samples);
}

}  // namespace opim
