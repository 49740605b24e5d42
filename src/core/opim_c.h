// OPIM-C (Algorithm 2): the paper's extension of OPIM to conventional
// influence maximization (§6).
//
// Given (G, model, k, ε, δ), OPIM-C returns a size-k seed set that is a
// (1 - 1/e - ε)-approximation with probability >= 1 - δ, in
// O((k ln n + ln(1/δ))(n + m) ε⁻²) expected time (Theorem 6.4) — matching
// IMM's guarantees while generating far fewer RR sets in practice.
//
// Structure: start both pools at θ0 (Eq. 17) RR sets; each iteration runs
// greedy on R1, computes σ_l from R2 and the σ-upper bound from R1 with
// δ1 = δ2 = δ/(3·i_max), and stops as soon as
// α = σ_l/σ_upper >= 1 - 1/e - ε; otherwise both pools double, up to
// i_max = ceil(log2(θ_max/θ0)) iterations with θ_max from Eq. (16).

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bounds/bounds.h"
#include "diffusion/cascade.h"
#include "graph/graph.h"
#include "support/run_control.h"

namespace opim {

struct RRPoolSnapshot;  // rrset/snapshot.h

/// Tuning knobs for OpimC.
struct OpimCOptions {
  /// Which σ(S°) upper bound drives the stopping rule: kImproved is the
  /// published OPIM-C⁺ default; kBasic / kLeskovec give OPIM-C⁰ / OPIM-C′.
  BoundKind bound = BoundKind::kImproved;
  /// RNG seed for the RR-set stream.
  uint64_t seed = 1;
  /// Worker threads for RR-set generation (1 = serial; 0 = hardware
  /// default). Results are deterministic in (seed, num_threads).
  unsigned num_threads = 1;
  /// Pipelined doubling loop: while CELF and the bounds run on the frozen
  /// pools, background workers speculatively sample the next doubling's
  /// batches into compressed staging buffers; if the iteration does not
  /// converge they are merged as the doubling (shard-order, seeds derived
  /// exactly as the serial schedule's), otherwise discarded. Output is
  /// byte-identical to `pipeline = false` for the same (seed,
  /// num_threads); only wall-clock differs. Inert when num_threads == 1
  /// (speculation needs pool workers).
  bool pipeline = true;
  /// Optional node weights (one per node, non-negative, not all zero):
  /// switches the objective to the weighted spread σ_w (see IcRRSampler).
  /// The guarantee becomes (1 - 1/e - ε) w.r.t. the weighted optimum.
  std::vector<double> node_weights;
  /// Directory for the out-of-core RR spill tier (empty = spilling off).
  /// When set, both pools arm an unlinked spill file there; once the
  /// exact iteration-boundary footprint crosses half of an armed
  /// RunControl memory budget, cold compressed chunks are written out
  /// until each pool keeps at most a quarter of its member bytes
  /// resident (a sticky target that later fault-ins respect), and the
  /// run continues instead of stopping. CELF recounts fault spilled chunks
  /// back in on demand, so seed sets and α are bit-identical to the
  /// fully-resident run. A spill I/O failure trips the control with the
  /// distinct StopReason::kSpillFailure and degrades like a
  /// memory-budget stop. Ignored without a control or budget.
  std::string spill_dir;
  /// Optional run guardrails (deadline / memory budget / cancellation),
  /// non-owning; must outlive the call. When the control trips, the run
  /// exits at the next safe point, finishes the judge-pool bound
  /// evaluation on whatever RR sets exist, and returns normally with
  /// OpimCResult::guardrails.stop_reason set — the anytime contract of
  /// §4 applied to OPIM-C (see docs/robustness.md). nullptr = no
  /// guardrails (byte-identical behavior to previous releases).
  RunControl* control = nullptr;
  /// Crash-safe checkpointing (empty = off): the engine atomically
  /// rewrites `<checkpoint_dir>/opimc.opimss` (rrset/snapshot.h;
  /// write-to-temp + fsync + rename, so the last durable snapshot
  /// always survives a kill -9 mid-write) at the top of every
  /// `checkpoint_every_iters`-th doubling iteration, and once more on a
  /// deadline / memory-budget / cancellation trip. A checkpoint failure
  /// is logged and counted but never stops a healthy run. Resuming from
  /// a boundary checkpoint reproduces the uninterrupted run bit-for-bit
  /// (tests/core/checkpoint_resume_test.cc).
  std::string checkpoint_dir;
  uint32_t checkpoint_every_iters = 1;
  /// Resume state loaded by LoadSnapshot (non-owning; pools are moved
  /// out of it). The snapshot's parameters are authoritative: the
  /// engine OPIM_CHECKs that (k, ε, δ, seed, threads, bound, model,
  /// graph fingerprint, weights) match the call — the CLI validates the
  /// same facts first with a clean error. nullptr = fresh run.
  RRPoolSnapshot* resume = nullptr;
  /// Prefix query sizes: for each k' here (1 <= k' <= k, validated),
  /// the run also answers the k'-seed query — seeds, σ_l, σ_upper, α —
  /// from the final iteration's selection, which traces every k', and
  /// its one judge scan: no extra selection or pool scan
  /// (OpimCResult::queries). Greedy prefix-consistency makes each answer
  /// identical to what a fresh selection + bound evaluation at k' over
  /// the same final pools would produce. Each answer holds with
  /// probability >= 1 - δ on its own; they share one pair of pools and
  /// one failure budget, so they do not all hold jointly at that
  /// probability. Empty = no queries.
  std::vector<uint32_t> query_ks;
};

/// Per-iteration record, for tests and diagnostics. The *_seconds phase
/// breakdown attributes wall time to the iteration that consumed it: RR-set
/// generation (including the initial θ0 fill and the doubling at the end of
/// the previous iteration), greedy selection on R1, and the bound
/// computations (Λ2 coverage + σ_l/σ_u/α). Timings are diagnostic only —
/// they never influence the algorithm and are not deterministic.
struct OpimCIteration {
  uint64_t theta1 = 0;       // |R1| this iteration
  double alpha = 0.0;        // guarantee computed this iteration
  double sigma_lower = 0.0;
  double sigma_upper = 0.0;
  double generate_seconds = 0.0;
  double greedy_seconds = 0.0;
  double bounds_seconds = 0.0;
  /// RR-pool heap footprint when this iteration's bounds were evaluated:
  /// both collections' MemoryUsage() plus the SamplingView. Since the
  /// pools store members group-varint compressed (rrset/varint_codec.h),
  /// this is the *compressed* footprint — the exact quantity a RunControl
  /// memory budget is checked against at the iteration boundary.
  uint64_t rr_bytes = 0;
  /// Bytes of both pools' compressed member encodings alone (the
  /// telemetry gauge opim.rrset.compressed_bytes at this boundary).
  uint64_t rr_compressed_bytes = 0;
};

/// Guardrail outcome of a run (all zeros/converged when no RunControl was
/// supplied). The result as a whole stays a valid anytime answer for every
/// stop reason: seeds is a size-k set and alpha its Eq. (5)/(13)
/// certificate on the RR sets that existed at the stop point.
struct OpimCGuardrails {
  /// Why the run stopped. kConverged covers both the α >= target exit and
  /// the i_max exhaustion exit (Lemma 6.1); every other value means a
  /// guardrail tripped and the run degraded gracefully.
  StopReason stop_reason = StopReason::kConverged;
  /// Whether a deadline was armed, and the wall-clock slack remaining at
  /// the end of the run (negative = overshoot past the deadline).
  bool had_deadline = false;
  double deadline_slack_seconds = 0.0;
  /// Peak RR-pool footprint the control observed, and the armed budget
  /// (0 = unlimited).
  uint64_t peak_rr_bytes = 0;
  uint64_t memory_budget_bytes = 0;
  /// Trip-to-return latency: wall seconds between the control tripping and
  /// the run finishing its degraded finalization (0 when never tripped).
  double stop_latency_seconds = 0.0;
};

/// One answered prefix query (OpimCOptions::query_ks): the size-k' seed
/// prefix with its own Eq. (5) / upper-bound certificate, evaluated at
/// the run's final pools with the same per-iteration failure budget.
struct OpimCQueryAnswer {
  uint32_t k = 0;
  double alpha = 0.0;
  double sigma_lower = 0.0;
  double sigma_upper = 0.0;
  std::vector<NodeId> seeds;
};

/// Output of OpimC.
struct OpimCResult {
  /// The returned size-k seed set.
  std::vector<NodeId> seeds;
  /// Guarantee α at the stopping iteration (>= 1 - 1/e - ε unless the
  /// algorithm exhausted i_max, which Lemma 6.1 covers instead).
  double alpha = 0.0;
  /// Total RR sets generated across both pools.
  uint64_t num_rr_sets = 0;
  /// Total RR-set nodes generated, Σ|R| (the memory/time driver).
  uint64_t total_rr_size = 0;
  /// Final compressed member-pool bytes across both collections, and the
  /// raw uint32 bytes those members would occupy uncompressed
  /// (total_rr_size · 4). Their quotient is the storage compression
  /// ratio the CLI reports next to peak_rr_bytes.
  uint64_t rr_compressed_bytes = 0;
  uint64_t rr_raw_member_bytes = 0;
  /// Iterations executed (1-based; <= i_max).
  uint32_t iterations = 0;
  /// Speculation accounting (pipelined runs only): RR sets sampled ahead
  /// of need that were merged as a doubling, and sets discarded because
  /// the loop converged (or tripped) first — only the final iteration's
  /// staged work is ever discarded. Mirrors the telemetry counters
  /// opim.rrset.speculative_sets_used / _discarded.
  uint64_t speculative_sets_used = 0;
  uint64_t speculative_sets_discarded = 0;
  /// Out-of-core spill accounting across both pools (all zero when
  /// OpimCOptions::spill_dir was empty or the tier never engaged):
  /// chunks written to the spill file, chunks faulted back for CELF
  /// recounts, and compressed bytes still on disk (not resident) at
  /// exit. Mirror the telemetry counters opim.rrset.spill_chunks_*.
  uint64_t spill_chunks_spilled = 0;
  uint64_t spill_chunks_faulted = 0;
  uint64_t spilled_bytes = 0;
  /// Checkpoint/resume accounting (all zero for fresh, uncheckpointed
  /// runs): the iteration a resumed run re-entered at (0 = fresh), and
  /// the snapshots written / bytes / wall seconds this run spent
  /// checkpointing. Mirror the telemetry counters opim.snapshot.*.
  uint32_t resumed_from_iteration = 0;
  uint64_t checkpoints_written = 0;
  uint64_t checkpoint_bytes_written = 0;
  double checkpoint_write_seconds = 0.0;
  /// The i_max bound computed from Eqs. (16)/(17).
  uint32_t i_max = 0;
  /// The thread count actually used (OpimCOptions::num_threads with 0
  /// resolved to the hardware default).
  unsigned num_threads = 1;
  /// Trace of every executed iteration.
  std::vector<OpimCIteration> trace;
  /// Per-k' answers for OpimCOptions::query_ks, in the order requested
  /// (empty when no queries were asked).
  std::vector<OpimCQueryAnswer> queries;
  /// Guardrail outcome (see OpimCGuardrails); defaulted when
  /// OpimCOptions::control was null.
  OpimCGuardrails guardrails;
};

/// Snapshots a RunControl's outcome into the guardrail record (also used
/// by the CLI's online session, which drives OnlineMaximizer directly).
OpimCGuardrails SummarizeGuardrails(const RunControl& control);

/// θ_max of Eq. (16): worst-case RR sets needed for the final iteration's
/// unconditional Lemma 6.1 guarantee at failure budget δ/3, for k seeds
/// on n nodes. `scale` and `opt_lb` are the σ scale and a lower bound on
/// the optimum: n and k for unit weights, Σ w_v and the top-k weight sum
/// for weighted spread (TwoPoolEngine::scale / MinSpread).
double OpimCThetaMax(uint32_t n, uint32_t k, double eps, double delta,
                     double scale, double opt_lb);

/// Runs OPIM-C on `g`. Requires 1 <= k <= n, ε ∈ (0, 1), δ ∈ (0, 1).
OpimCResult RunOpimC(const Graph& g, DiffusionModel model, uint32_t k,
                     double eps, double delta, const OpimCOptions& options = {});

}  // namespace opim
