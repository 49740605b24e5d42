// TwoPoolEngine: what OPIM (§4) and OPIM-C (§6) share. Both stream RR
// sets into two pools — R1 nominates S* by greedy max-coverage, R2
// judges it — and certify α = σ_l(S*) / σ_upper(S°); they differ only in
// the schedule (OnlineMaximizer grows the pools on request, RunOpimC
// doubles them until α reaches its target). The engine owns the pools,
// the SamplingView and weighted-root table, one ThreadPool reused across
// calls, the SelectionState, the bounds and the spill/snapshot hooks.
// Callers pass every batch seed, so each keeps its own RR stream.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bounds/bounds.h"
#include "diffusion/cascade.h"
#include "graph/graph.h"
#include "graph/sampling_view.h"
#include "rrset/parallel_generate.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_sampler.h"
#include "select/greedy.h"
#include "select/selection_state.h"
#include "support/alias_sampler.h"
#include "support/random.h"
#include "support/run_control.h"
#include "support/status.h"
#include "support/thread_pool.h"

namespace opim {

class SeedTrace;
struct RRPoolSnapshot;
struct SnapshotRunState;

class TwoPoolEngine {
 public:
  /// Empty `node_weights` selects unit weights, else every σ is the
  /// weighted spread σ_w (weights checked). `num_threads` (0 = hardware
  /// default) fixes each batch's shard count; > 1 builds the workers.
  TwoPoolEngine(const Graph& g, DiffusionModel model,
                std::span<const double> node_weights, unsigned num_threads);
  ~TwoPoolEngine();

  OPIM_DISALLOW_COPY(TwoPoolEngine);

  const RRCollection& r1() const { return r1_; }
  const RRCollection& r2() const { return r2_; }

  /// The σ scale: n for unit weights, else Σ w_v.
  double scale() const { return scale_; }

  /// A lower bound on σ(S) for every size-k seed set S (each seed at
  /// least activates itself): k, or the top-k weight sum (checked > 0).
  double MinSpread(uint32_t k) const;

  unsigned num_threads() const { return threads_; }
  bool has_workers() const { return workers_ != nullptr; }

  /// Sets the thread count of later batches, rebuilding the workers only
  /// when their number changes. Requires no staged batches.
  void SetThreads(unsigned num_threads);

  /// Both pools' heap footprint; plus the view, what a RunControl memory
  /// budget is checked against.
  uint64_t PoolBytes() const { return r1_.MemoryUsage() + r2_.MemoryUsage(); }
  uint64_t Footprint() const {
    return PoolBytes() + view_.MemoryFootprintBytes();
  }

  // --- Sampling ----------------------------------------------------------

  /// Stages one batch per pool (a count may be 0), their shards
  /// interleaved on the workers, and returns at once; Merge ingests the
  /// batches, Discard drops them. This is the engine's only batch path:
  /// an eager batch is a Stage followed at once by Merge, so both pools'
  /// shards share one fan-out, one join and one ingest. Each pool's
  /// batch is byte-identical to ParallelGenerate with the same count,
  /// seed and thread count. Shards poll with both pools' footprint plus
  /// their staging bytes. `speculative` batches may turn out unneeded
  /// (the pipelined loop stages the next doubling while selection runs);
  /// their shards evaluate the rrset.speculation_throw site.
  void Stage(uint64_t count1, uint64_t seed1, uint64_t count2,
             uint64_t seed2, RunControl* control, bool speculative);
  bool staging() const { return run_.has_value(); }

  /// Joins and ingests the staged batches under ParallelGenerate's
  /// failure contract. Returns the sets merged.
  uint64_t Merge(RunControl* control);

  /// Aborts, joins and drops the staged batches, swallowing any exception
  /// (the eager schedule never sampled them). Returns the sets discarded.
  uint64_t Discard();

  /// Samples `count` sets on the calling thread from `rng`, each into R1
  /// when `*to_r1` (else R2), flipping the cursor; AddSet appends each
  /// set's postings in place, so the index stays current for the next
  /// query. Polls `control` with Footprint() every kControlPollStride
  /// sets and stops once it trips, but never before both pools hold a
  /// set.
  void SampleSerial(uint64_t count, Rng& rng, bool* to_r1,
                    RunControl* control);

  /// Anytime floor: once `control` has tripped, each empty pool gets one
  /// uncontrolled set with batch seed `seed_for(index)` (asked for R1
  /// first), staged together, so greedy still pads to k seeds and both σ
  /// estimates stay finite. Requires no staged batches.
  void FloorEmptyPools(RunControl* control,
                       const std::function<uint64_t(int)>& seed_for);

  // --- Selection and certification ---------------------------------------

  struct SelectOptions {
    /// Record the greedy trace the kImproved / kLeskovec bounds need.
    bool with_trace = false;
    /// Warm-start CELF from the persistent SelectionState; false runs the
    /// from-scratch pass (the test oracle). Output is identical.
    bool incremental = true;
    /// Runs right after CELF's initial-gain pass (see Stage).
    std::function<void()> after_initial_gains;
    /// Records the prefix-complete trace for k' <= k queries.
    SeedTrace* seed_trace = nullptr;
  };

  /// CELF greedy on R1; the workers parallelize the cold initial-gain
  /// pass. Const: the selection state is an output-neutral cache.
  GreedyResult Select(uint32_t k, const SelectOptions& options) const;

  /// A selection's certificate at the current pools.
  struct Certificate {
    uint64_t lambda2 = 0;      // Λ2(S*): coverage of the seeds in R2
    double sigma_lower = 0.0;  // Eq. (5) at δ2
    double sigma_upper = 0.0;  // σ_upper(S°) for the bound kind at δ1
    double alpha = 0.0;        // σ_lower / σ_upper
  };
  Certificate Certify(const GreedyResult& greedy, BoundKind kind,
                      double delta1, double delta2) const;

  /// σ_upper(S°) alone, for judging one selection under several kinds.
  double UpperBound(const GreedyResult& greedy, BoundKind kind,
                    double delta1) const;

  /// Prepares `trace`, recorded by the last Select, to answer k' <= k
  /// queries at the current pools with failure budgets δ1/δ2.
  void CertifyTrace(SeedTrace* trace, double delta1, double delta2) const;

  // --- Storage -----------------------------------------------------------

  /// Arms both pools' spill tier in `dir`; on failure (logged) the pools
  /// stay fully resident, which is always valid.
  void EnableSpill(const std::string& dir);

  /// Once the pools cross half of `control`'s memory budget, each armed
  /// pool spills cold chunks until at most a quarter of its member bytes
  /// stay resident. A spill I/O failure trips kSpillFailure.
  void MaybeSpill(RunControl* control);

  /// Atomically writes `run` plus both pools to `path` (SaveSnapshot).
  Result<uint64_t> Save(const SnapshotRunState& run,
                        const std::string& path) const;

  /// Adopts a loaded snapshot's pools and builds their indexes on the
  /// workers.
  void Restore(RRPoolSnapshot* snapshot);

 private:
  const AliasSampler* root() const {
    return root_.empty() ? nullptr : &root_;
  }
  RRCollection& pool(int index) { return index == 0 ? r1_ : r2_; }

  void ClearStage();
  /// Adds the workers' stats since the last call to telemetry.
  void ReportPoolStats();

  DiffusionModel model_;
  std::vector<double> weights_;  // empty = unit weights
  double scale_;
  unsigned threads_;
  std::unique_ptr<ThreadPool> workers_;  // null when threads_ == 1
  ThreadPoolStats reported_;
  SamplingView view_;
  AliasSampler root_;  // weighted roots; empty = uniform
  RRCollection r1_;
  RRCollection r2_;
  mutable SelectionState state_;
  std::unique_ptr<RRSampler> serial_sampler_;  // built by SampleSerial
  std::vector<NodeId> serial_scratch_;
  // Batches in flight; the run joins its shards on destruction, so it is
  // declared after the stages it samples into.
  std::optional<StagedGeneration> staged_[2];
  std::optional<ShardRun> run_;
};

}  // namespace opim
