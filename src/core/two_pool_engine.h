// TwoPoolEngine: what OPIM (§4) and OPIM-C (§6) share. Both stream RR
// sets into two pools — R1 nominates S* by greedy max-coverage, R2 judges
// it — and certify α = σ_l(S*) / σ_upper(S°); they differ only in the
// schedule (OnlineMaximizer grows the pools on request, RunOpimC doubles
// them until α reaches its target). R2 is read once per certificate, for
// Λ2(S*), so it keeps no inverted index: one judge scan of its compressed
// sets answers each certificate (see RRStoreOptions::index). The engine
// owns the pools, the weighted-root table, one ThreadPool reused across
// calls, the bounds and the spill/snapshot hooks; it borrows the graph's
// memoized SamplingView (built on its workers when it is the graph's
// first user). Its staged batches are the library's one parallel RR
// generator and the engine's one ingest path: every OPIM-C fill and
// doubling and every online Advance is a stage. Callers pass every batch
// seed, so each keeps its own RR stream.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bounds/bounds.h"
#include "diffusion/cascade.h"
#include "graph/graph.h"
#include "graph/sampling_view.h"
#include "rrset/rr_collection.h"
#include "rrset/staged_generation.h"
#include "select/greedy.h"
#include "support/alias_sampler.h"
#include "support/run_control.h"
#include "support/status.h"
#include "support/thread_pool.h"

namespace opim {

struct RRPoolSnapshot;
struct SnapshotRunState;

class TwoPoolEngine {
 public:
  /// Empty `node_weights` selects unit weights, else every σ is the
  /// weighted spread σ_w (weights checked). `num_threads` (0 = hardware
  /// default) sizes the engine's pool and fixes each batch's shard count.
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

  unsigned num_threads() const { return workers_.num_threads(); }
  /// Whether the pool has worker threads, so a staged batch can run
  /// while the caller does other work.
  bool has_workers() const { return num_threads() > 1; }

  /// Both pools' heap footprint; plus the view, what a RunControl memory
  /// budget is checked against. The view is the graph's and outlives the
  /// engine, but every engine on the graph still counts it, so a budget
  /// does not depend on whether an earlier run built it.
  uint64_t PoolBytes() const { return r1_.MemoryUsage() + r2_.MemoryUsage(); }
  uint64_t Footprint() const {
    return PoolBytes() + view_.MemoryFootprintBytes();
  }

  // --- Sampling ----------------------------------------------------------

  /// Stages one batch per pool (a count may be 0) and returns at once:
  /// both batches' shards are one TaskGroup on the engine's pool, which
  /// its workers start on. Merge ingests the batches, Discard drops them.
  /// This is the engine's only sampling path: an eager batch is a Stage
  /// followed at once by Merge, so both pools' shards share one fan-out,
  /// one join and one ingest. Each pool's batch has
  /// GenerateShardCount(count, num_threads()) shards (StagedGeneration
  /// fixes their RNG streams), so it is deterministic in (count, seed,
  /// thread count). Shards poll with both pools' footprint plus their
  /// staging bytes. `speculative` batches may turn out unneeded (the
  /// pipelined loop stages the next doubling while selection runs);
  /// their shards evaluate the rrset.speculation_throw site.
  void Stage(uint64_t count1, uint64_t seed1, uint64_t count2,
             uint64_t seed2, RunControl* control, bool speculative);
  bool staging() const { return shards_.has_value(); }

  /// Joins the staged shards, running any no worker started on the
  /// caller, and ingests both batches. A shard failure (fault injection
  /// or allocation failure) trips control->TripWorkerFailure() and every
  /// completed set is still ingested; with control == nullptr it is
  /// rethrown instead, and nothing is ingested. Once a control trips,
  /// shards stop at the next whole set, so the number merged depends on
  /// timing only after a trip. Returns the sets merged.
  uint64_t Merge(RunControl* control);

  /// Aborts, joins and drops the staged batches, swallowing any exception
  /// (the eager schedule never sampled them). Returns the sets discarded.
  uint64_t Discard();

  /// Anytime floor: once `control` has tripped, each empty pool gets one
  /// uncontrolled set with batch seed `seed_for(index)` (asked for R1
  /// first), staged together, so greedy still pads to k seeds and both σ
  /// estimates stay finite. Requires no staged batches.
  void FloorEmptyPools(RunControl* control,
                       const std::function<uint64_t(int)>& seed_for);

  // --- Selection and certification ---------------------------------------

  /// CELF greedy on R1, starting from R1's maintained member counts. A
  /// non-empty `trace_ks` records the greedy trace for k and every listed
  /// size (SelectGreedyCelf), which the kImproved / kLeskovec bounds and
  /// the certificates of smaller sizes read. Reads R1 only, so it may run
  /// while batches are staged (Merge is what writes the pools).
  GreedyResult Select(uint32_t k,
                      const std::vector<uint32_t>& trace_ks = {}) const;

  /// The certificate of the first `k` seeds of a selection at the
  /// current pools.
  struct Certificate {
    uint32_t k = 0;            // seed-set size
    uint64_t lambda2 = 0;      // Λ2(S_k*): coverage of those seeds in R2
    double sigma_lower = 0.0;  // Eq. (5) at δ2
    double sigma_upper = 0.0;  // σ_upper(S°) for the bound kind at δ1
    double alpha = 0.0;        // σ_lower / σ_upper
  };
  /// Certifies `greedy`, which Select produced at the current pools, at
  /// every size it traced, ascending (at its k alone when untraced), so
  /// the selection's own certificate is the last. One judge scan of R2
  /// gives Λ2 of every prefix, at the cost of the Λ2(S*) it always needs.
  std::vector<Certificate> Certify(const GreedyResult& greedy,
                                   BoundKind kind, double delta1,
                                   double delta2) const;

  /// σ_upper(S°) alone, for judging one selection under several kinds.
  double UpperBound(const GreedyResult& greedy, BoundKind kind,
                    double delta1) const;

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

  /// Adopts a loaded snapshot's pools, which are unindexed, and builds
  /// R1's index on the workers; R2 stays unindexed.
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
  ThreadPool workers_;
  ThreadPoolStats reported_;
  const SamplingView& view_;  // the graph's memoized view
  AliasSampler root_;  // weighted roots; empty = uniform
  RRCollection r1_;
  RRCollection r2_;
  // Batches in flight. The group joins their shards on destruction, so it
  // is declared after the stages it samples into.
  std::optional<StagedGeneration> staged_[2];
  std::optional<TaskGroup> shards_;
};

}  // namespace opim
