#include "core/opim_c.h"

#include <algorithm>
#include <cmath>

#include "core/two_pool_engine.h"
#include "obs/log.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "rrset/snapshot.h"
#include "select/seed_trace.h"
#include "support/math_util.h"
#include "support/random.h"
#include "support/stopwatch.h"

namespace opim {

double OpimCThetaMax(uint32_t n, uint32_t k, double eps, double delta) {
  OPIM_CHECK_GE(k, 1u);
  OPIM_CHECK(eps > 0.0 && eps < 1.0);
  OPIM_CHECK(delta > 0.0 && delta < 1.0);
  const double ln6d = std::log(6.0 / delta);
  const double lognk = LogBinomial(n, k);
  const double inner = kOneMinusInvE * std::sqrt(ln6d) +
                       std::sqrt(kOneMinusInvE * (lognk + ln6d));
  return 2.0 * n * inner * inner / (eps * eps * k);
}

double OpimCTheta0(uint32_t n, uint32_t k, double eps, double delta) {
  return OpimCThetaMax(n, k, eps, delta) * eps * eps * k / n;
}

OpimCGuardrails SummarizeGuardrails(const RunControl& control) {
  OpimCGuardrails gr;
  gr.stop_reason =
      control.Stopped() ? control.reason() : StopReason::kConverged;
  gr.had_deadline = control.has_deadline();
  if (gr.had_deadline) {
    gr.deadline_slack_seconds = control.deadline_slack_seconds();
  }
  gr.peak_rr_bytes = control.peak_bytes();
  gr.memory_budget_bytes = control.memory_budget_bytes();
  if (control.Stopped()) {
    gr.stop_latency_seconds = control.seconds_since_trip();
  }
  return gr;
}

OpimCResult RunOpimC(const Graph& g, DiffusionModel model, uint32_t k,
                     double eps, double delta, const OpimCOptions& options) {
  const uint32_t n = g.num_nodes();
  OPIM_CHECK_GE(n, 1u);
  OPIM_CHECK_GE(k, 1u);
  OPIM_CHECK_LE(k, n);
  OPIM_CHECK(eps > 0.0 && eps < 1.0);
  OPIM_CHECK(delta > 0.0 && delta < 1.0);

  // One engine for the whole run: one worker pool and one sampling view
  // serve every doubling of both pools, every index merge and every CELF
  // pass (see core/two_pool_engine.h).
  TwoPoolEngine engine(g, model, options.node_weights, options.num_threads);

  // Weighted objective: scale W = Σ w_v replaces n, and the trivial
  // optimum lower bound becomes the top-k weight sum (each seed at least
  // activates itself) instead of k. Unit weights recover Eqs. (16)/(17).
  const double scale = engine.scale();
  const double opt_lb = engine.MinSpread(k);
  const double ln6d = std::log(6.0 / delta);
  const double lm_inner = kOneMinusInvE * std::sqrt(ln6d) +
                          std::sqrt(kOneMinusInvE * (LogBinomial(n, k) + ln6d));
  const double theta_max =
      2.0 * scale * lm_inner * lm_inner / (eps * eps * opt_lb);
  const uint64_t theta0 = std::max<uint64_t>(
      1, CeilToU64(theta_max * eps * eps * opt_lb / scale));
  const uint32_t i_max = std::max<uint32_t>(
      1, CeilLog2(CeilToU64(theta_max / static_cast<double>(theta0))));
  const double delta_iter = delta / (3.0 * i_max);  // δ1 = δ2 = δ/(3·i_max)
  const double target = 1.0 - 1.0 / std::exp(1.0) - eps;

  const unsigned num_threads = engine.num_threads();
  OPIM_TM_COUNTER_ADD("opim.opimc.runs", 1);
  OPIM_LOG(kInfo) << "opim-c: n=" << n << " k=" << k << " eps=" << eps
                  << " delta=" << delta << " theta0=" << theta0
                  << " i_max=" << i_max << " threads=" << num_threads;

  // Generation goes through engine batches even in the serial case so
  // the RR stream depends only on (seed, num_threads); each batch gets a
  // distinct derived seed, R1's before R2's. Every fill of both pools —
  // the θ0 fill, an eager doubling, a speculative one — is one engine
  // stage with the next two batch seeds. The speculative path below
  // *peeks* them without consuming them, and bumps the counter only when
  // a staged doubling is actually merged — so the RR stream stays
  // byte-identical whether a batch was sampled eagerly or speculatively.
  // `pending_generate_seconds` accumulates the wall time of every
  // generate() since the last iteration record, so the θ0 fill and each
  // doubling land on the iteration that consumes them.
  RunControl* const control = options.control;
  uint64_t batch_counter = 0;
  double pending_generate_seconds = 0.0;
  auto batch_seed = [&options](uint64_t counter) {
    uint64_t state = options.seed ^ (0x6f70634bULL + counter);
    return SplitMix64(state);
  };
  auto generate = [&](uint64_t count1, uint64_t count2) {
    OPIM_TR_SPAN2("generate", "opimc", "count1", count1, "count2", count2);
    OPIM_TM_SCOPED_TIMER("opim.rrset.generate_us");
    Stopwatch watch;
    engine.Stage(count1, batch_seed(batch_counter + 1), count2,
                 batch_seed(batch_counter + 2), control,
                 /*speculative=*/false);
    engine.Merge(control);
    batch_counter += 2;
    pending_generate_seconds += watch.ElapsedSeconds();
  };
  const bool pipelined = options.pipeline && engine.has_workers();

  // Resume: adopt the snapshot's pools and loop position. The RR stream
  // is a pure function of (seed, num_threads, batch_counter), and CELF
  // / the bounds / the index rebuild are deterministic, so continuing
  // from an iteration-boundary snapshot is bit-identical to never
  // having stopped. A parameter mismatch would silently change the
  // algorithm the certificate describes — refuse loudly instead (the
  // CLI pre-validates the same facts with a clean error message).
  uint32_t start_iter = 1;
  uint32_t resumed_from = 0;
  if (options.resume != nullptr) {
    RRPoolSnapshot& snap = *options.resume;
    OPIM_CHECK_MSG(snap.run.graph_nodes == n && snap.run.graph_edges == g.num_edges(),
                   "resume snapshot was written for a different graph");
    OPIM_CHECK_MSG(snap.run.weights_checksum ==
                       SnapshotWeightsChecksum(options.node_weights),
                   "resume snapshot was written with different node weights");
    OPIM_CHECK_MSG(snap.run.run_seed == options.seed &&
                       snap.run.num_threads == num_threads,
                   "resume snapshot was written with a different RR stream "
                   "identity (seed, threads)");
    OPIM_CHECK_MSG(snap.run.k == k && snap.run.eps == eps &&
                       snap.run.delta == delta,
                   "resume snapshot was written with different (k, eps, delta)");
    OPIM_CHECK_MSG(snap.run.bound == static_cast<uint32_t>(options.bound) &&
                       snap.run.model == static_cast<uint32_t>(model),
                   "resume snapshot was written with a different bound/model");
    engine.Restore(&snap);
    batch_counter = snap.run.batch_counter;
    start_iter = std::clamp<uint32_t>(snap.run.next_iteration, 1, i_max);
    resumed_from = start_iter;
    if (control != nullptr) control->RecordPeakBytes(snap.run.peak_rr_bytes);
    OPIM_TM_COUNTER_ADD("opim.snapshot.resumes", 1);
    OPIM_LOG(kInfo) << "opim-c: resumed from snapshot at iteration "
                    << start_iter << " (theta1=" << engine.r1().num_sets()
                    << ", batch_counter=" << batch_counter << ")";
  }
  if (!options.spill_dir.empty()) engine.EnableSpill(options.spill_dir);
  if (options.resume == nullptr) generate(theta0, theta0);

  // Anytime floor: if a guardrail tripped before (or during) the θ0 fill
  // and left a pool empty, the bound machinery below has nothing to
  // evaluate; each floored set consumes the next batch seed.
  engine.FloorEmptyPools(control,
                         [&](int) { return batch_seed(++batch_counter); });

  OpimCResult result;
  result.i_max = i_max;
  result.num_threads = num_threads;
  result.resumed_from_iteration = resumed_from;
  const bool query_mode = !options.query_ks.empty();
  for (uint32_t k_prime : options.query_ks) {
    OPIM_CHECK_MSG(k_prime >= 1 && k_prime <= k,
                   "query_ks entries must satisfy 1 <= k' <= k");
  }
  // The Eq. (10) trace is needed for the improved/Leskovec bounds, and —
  // prefix-complete — for any query answering. The engine's persistent
  // selection state warm-starts CELF every doubling (a resumed run's
  // first selection rebuilds it from the restored pools) with
  // bit-identical output; see selection_state.h. The SeedTrace is
  // re-armed per traced selection, so the one the exiting iteration
  // recorded is the one queries are answered from.
  SeedTrace seed_trace;
  TwoPoolEngine::SelectOptions select;
  select.with_trace = options.bound != BoundKind::kBasic || query_mode;
  select.incremental = options.incremental_selection;
  if (query_mode) select.seed_trace = &seed_trace;

  // Periodic checkpointing: `write_checkpoint(next, clean)` captures
  // the pools plus the exact loop position needed to re-enter iteration
  // `next` — the batch counter (the whole sampler state) and the run
  // identity — and publishes it atomically, so the file at
  // `checkpoint_dir` is always the last *durable* snapshot no matter
  // when the process dies. `clean` records whether the state is an
  // exact iteration boundary (periodic writes, boundary-poll trips) or
  // was captured after a trip interrupted generation mid-doubling —
  // resume is deterministic either way, but only clean snapshots are
  // guaranteed bit-identical to the uninterrupted schedule.
  const bool checkpointing = !options.checkpoint_dir.empty();
  const uint32_t checkpoint_every =
      std::max<uint32_t>(1, options.checkpoint_every_iters);
  const std::string checkpoint_path =
      options.checkpoint_dir + "/opimc.opimss";
  auto write_checkpoint = [&](uint32_t next_iteration, bool clean) {
    OPIM_TR_SPAN1("checkpoint", "opimc", "iter", next_iteration);
    Stopwatch watch;
    SnapshotRunState rs;
    rs.run_seed = options.seed;
    rs.batch_counter = batch_counter;
    rs.peak_rr_bytes = control != nullptr ? control->peak_bytes() : 0;
    rs.graph_nodes = n;
    rs.graph_edges = g.num_edges();
    rs.weights_checksum = SnapshotWeightsChecksum(options.node_weights);
    rs.eps = eps;
    rs.delta = delta;
    rs.next_iteration = next_iteration;
    rs.num_threads = num_threads;
    rs.k = k;
    rs.bound = static_cast<uint32_t>(options.bound);
    rs.model = static_cast<uint32_t>(model);
    rs.clean_boundary = clean ? 1 : 0;
    const Result<uint64_t> written = engine.Save(rs, checkpoint_path);
    const double seconds = watch.ElapsedSeconds();
    if (!written.ok()) {
      // Best-effort by contract: a failing checkpoint device must not
      // take down a healthy run — the operator just loses resumability.
      OPIM_LOG(kWarn) << "opim-c: checkpoint write failed: "
                      << written.status().ToString();
      OPIM_TM_COUNTER_ADD("opim.snapshot.write_failures", 1);
      return;
    }
    ++result.checkpoints_written;
    result.checkpoint_bytes_written += written.ValueOrDie();
    result.checkpoint_write_seconds += seconds;
    OPIM_TM_COUNTER_ADD("opim.snapshot.writes", 1);
    OPIM_TM_COUNTER_ADD("opim.snapshot.bytes_written", written.ValueOrDie());
    OPIM_TM_HISTOGRAM_RECORD("opim.snapshot.write_us", seconds * 1e6);
  };

  for (uint32_t i = start_iter; i <= i_max; ++i) {
    OPIM_TR_SPAN2("iteration", "opimc", "iter", i, "theta1",
                  engine.r1().num_sets());
    OPIM_TM_COUNTER_ADD("opim.opimc.iterations", 1);
    // Top-of-iteration checkpoint: the pools hold complete doublings and
    // the batch counter is consistent, so this is the clean boundary the
    // resume bit-identity guarantee is stated for. Skipped when a trip
    // already happened mid-generation (the pools may hold a partial
    // doubling; the on-trip write below captures that state instead) and
    // at a resumed run's own re-entry iteration (that snapshot is
    // already on disk).
    if (checkpointing && (i - start_iter) % checkpoint_every == 0 &&
        i != resumed_from && !(control != nullptr && control->Stopped())) {
      write_checkpoint(i, /*clean=*/true);
    }
    // Footprint peaks right after a doubling lands — shed cold chunks
    // before CELF touches the pools, not after.
    engine.MaybeSpill(control);
    Stopwatch phase_watch;

    // Pipelined schedule: CELF parallelizes its initial marginal-gain pass
    // on the run pool, and — right after that pass, the last pool use
    // inside selection — launches the *next* doubling's two batches as
    // speculative staging work on the same workers. The serial recount
    // phase of CELF, Λ2, and the bounds then overlap with sampling. The
    // staged batches use exactly the seeds the eager schedule would derive
    // (batch_counter + 1, + 2, consumed only on merge), so the RR stream
    // is byte-identical; only the final iteration's speculation is wasted.
    select.after_initial_gains = nullptr;
    if (pipelined && i < i_max &&
        !(control != nullptr && control->Stopped())) {
      select.after_initial_gains = [&] {
        engine.Stage(engine.r1().num_sets(), batch_seed(batch_counter + 1),
                     engine.r2().num_sets(), batch_seed(batch_counter + 2),
                     control, /*speculative=*/true);
      };
    }
    GreedyResult greedy = engine.Select(k, select);
    const double greedy_seconds = phase_watch.ElapsedSeconds();

    phase_watch.Restart();
    const TwoPoolEngine::Certificate cert =
        engine.Certify(greedy, options.bound, delta_iter, delta_iter);

    OpimCIteration iter;
    iter.theta1 = engine.r1().num_sets();
    iter.sigma_lower = cert.sigma_lower;
    iter.sigma_upper = cert.sigma_upper;
    iter.alpha = cert.alpha;
    iter.generate_seconds = pending_generate_seconds;
    pending_generate_seconds = 0.0;
    iter.greedy_seconds = greedy_seconds;
    iter.bounds_seconds = phase_watch.ElapsedSeconds();
    iter.rr_bytes = engine.Footprint();
    iter.rr_compressed_bytes = engine.r1().CompressedMemberBytes() +
                               engine.r2().CompressedMemberBytes();
    OPIM_TM_HISTOGRAM_RECORD("opim.opimc.phase.generate_us",
                             iter.generate_seconds * 1e6);
    OPIM_TM_HISTOGRAM_RECORD("opim.opimc.phase.greedy_us",
                             iter.greedy_seconds * 1e6);
    OPIM_TM_HISTOGRAM_RECORD("opim.opimc.phase.bounds_us",
                             iter.bounds_seconds * 1e6);
    OPIM_LOG(kDebug) << "opim-c: iter=" << i << " theta1=" << iter.theta1
                     << " alpha=" << iter.alpha
                     << " sigma_l=" << iter.sigma_lower
                     << " sigma_u=" << iter.sigma_upper;
    result.trace.push_back(iter);
    result.iterations = i;

    // Iteration-boundary guardrail check with the *exact* RR footprint
    // (generation polls only see a running estimate). A trip here — or one
    // carried out of the preceding generate calls — finalizes with this
    // iteration's seeds and α: the bounds were just evaluated on whatever
    // RR sets exist, so the certificate is valid at this pause point.
    const bool stopped_pre_boundary = control != nullptr && control->Stopped();
    const bool stopped = control != nullptr && control->Poll(iter.rr_bytes);
    const bool exiting = iter.alpha >= target || i == i_max || stopped;

    const bool speculated = engine.staging();
    if (speculated) {
      if (exiting) {
        // The eager schedule would never have sampled these batches, so
        // their outcome — including a speculative worker exception — must
        // not affect the result: abort, join, swallow, count the waste.
        OPIM_TR_SPAN1("speculate_discard", "opimc", "iter", i);
        const uint64_t discarded = engine.Discard();
        result.speculative_sets_discarded += discarded;
        OPIM_TM_COUNTER_ADD("opim.rrset.speculative_sets_discarded",
                            discarded);
      } else {
        // The staged batches *are* the doubling (Line 9 of Algorithm 2):
        // consume their two peeked seeds and ingest. A speculative failure
        // here is exactly a generate failure on the eager schedule —
        // degrade under a control, propagate without one.
        OPIM_TR_SPAN1("speculate_merge", "opimc", "iter", i);
        Stopwatch merge_watch;
        const uint64_t used = engine.Merge(control);
        batch_counter += 2;
        result.speculative_sets_used += used;
        OPIM_TM_COUNTER_ADD("opim.rrset.speculative_sets_used", used);
        pending_generate_seconds += merge_watch.ElapsedSeconds();
      }
    }

    if (exiting) {
      // Checkpoint-on-trip: a deadline / memory-budget / SIGINT stop is
      // exactly the case where the operator wants to continue later, so
      // capture the pause point before finalizing. A trip at the
      // boundary poll itself leaves clean iteration-boundary state; one
      // carried out of the preceding generation may leave a partial
      // doubling (still resumable and deterministic, flagged
      // clean_boundary=0). Worker/spill failures are not checkpointed —
      // their pool state reflects the failure being reported.
      if (checkpointing && stopped) {
        const StopReason why = control->reason();
        if (why == StopReason::kDeadline || why == StopReason::kMemoryBudget ||
            why == StopReason::kCancelled) {
          write_checkpoint(i, /*clean=*/!stopped_pre_boundary);
        }
      }
      if (query_mode) {
        // Answer every requested k' from the exiting iteration's
        // prefix-complete trace: one incremental judge-coverage pass,
        // then pure bound arithmetic per query — no re-selection, no
        // further pool scans. Evaluated at the final pools with the same
        // δ_iter the run's own certificate used, so the k' = k answer
        // reproduces iter.alpha exactly.
        OPIM_TR_SPAN1("query_answers", "opimc", "count",
                      options.query_ks.size());
        engine.CertifyTrace(&seed_trace, delta_iter, delta_iter);
        result.queries.reserve(options.query_ks.size());
        for (uint32_t k_prime : options.query_ks) {
          const TraceQueryBounds qb =
              BoundsAt(seed_trace, options.bound, k_prime);
          OpimCQueryAnswer answer;
          answer.k = k_prime;
          answer.alpha = qb.alpha;
          answer.sigma_lower = qb.sigma_lower;
          answer.sigma_upper = qb.sigma_upper;
          const std::span<const NodeId> prefix = seed_trace.SeedsAt(k_prime);
          answer.seeds.assign(prefix.begin(), prefix.end());
          result.queries.push_back(std::move(answer));
        }
      }
      result.seeds = std::move(greedy.seeds);
      result.alpha = iter.alpha;
      break;
    }
    if (!speculated) {
      // Eager doubling of both pools (Line 9 of Algorithm 2) — the only
      // path on serial runs, and the fallback when no speculation was
      // launched this iteration.
      generate(engine.r1().num_sets(), engine.r2().num_sets());
    }
  }

  const RRCollection& r1 = engine.r1();
  const RRCollection& r2 = engine.r2();
  result.num_rr_sets =
      static_cast<uint64_t>(r1.num_sets()) + r2.num_sets();
  result.total_rr_size = r1.total_size() + r2.total_size();
  result.rr_compressed_bytes =
      r1.CompressedMemberBytes() + r2.CompressedMemberBytes();
  result.rr_raw_member_bytes = r1.RawMemberBytes() + r2.RawMemberBytes();
  const RRSpillStats spill1 = r1.SpillStats();
  const RRSpillStats spill2 = r2.SpillStats();
  result.spill_chunks_spilled =
      spill1.chunks_spilled + spill2.chunks_spilled;
  result.spill_chunks_faulted =
      spill1.chunks_faulted + spill2.chunks_faulted;
  result.spilled_bytes = r1.SpilledBytes() + r2.SpilledBytes();
  if (control != nullptr) {
    result.guardrails = SummarizeGuardrails(*control);
    const OpimCGuardrails& gr = result.guardrails;
    if (control->Stopped()) {
      OPIM_LOG(kInfo) << "opim-c: guardrail stop reason="
                      << StopReasonName(gr.stop_reason)
                      << " latency_s=" << gr.stop_latency_seconds;
    }
    // The telemetry counter macro caches a handle per literal name, so the
    // reason -> name mapping must be spelled out per case.
    switch (gr.stop_reason) {
      case StopReason::kConverged:
        OPIM_TM_COUNTER_ADD("opim.runctl.stop.converged", 1);
        break;
      case StopReason::kDeadline:
        OPIM_TM_COUNTER_ADD("opim.runctl.stop.deadline", 1);
        break;
      case StopReason::kMemoryBudget:
        OPIM_TM_COUNTER_ADD("opim.runctl.stop.memory_budget", 1);
        break;
      case StopReason::kCancelled:
        OPIM_TM_COUNTER_ADD("opim.runctl.stop.cancelled", 1);
        break;
      case StopReason::kWorkerFailure:
        OPIM_TM_COUNTER_ADD("opim.runctl.stop.worker_failure", 1);
        break;
      case StopReason::kSpillFailure:
        OPIM_TM_COUNTER_ADD("opim.runctl.stop.spill_failure", 1);
        break;
    }
  }
  OPIM_LOG(kInfo) << "opim-c: done alpha=" << result.alpha
                  << " iterations=" << result.iterations
                  << " rr_sets=" << result.num_rr_sets;
  return result;
}

}  // namespace opim
