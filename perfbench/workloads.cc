#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/online_maximizer.h"
#include "core/opim_c.h"
#include "fingerprint.h"
#include "graph/graph_mmap.h"
#include "graph/sampling_view.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "rrset/rr_sampler.h"
#include "spans.h"
#include "support/resource_usage.h"
#include "support/thread_pool.h"

namespace perfbench {

namespace {

using opim::NodeId;

// At least 50 timed requests per run: p80 then has 10 requests beyond it.
constexpr uint32_t kMinRequests = 50;
constexpr uint32_t kWarmup = 2;
// Timed LoadOpimg calls behind setup_s (after one untimed warm load).
constexpr uint32_t kSetupLoads = 11;
// SamplingView builds behind graph.view_build_ms (traced run).
constexpr uint32_t kViewProbes = 3;
// Online sessions: RR sets per Advance (the CLI `online` default), and the
// round limit past which a session counts as failed.
constexpr uint64_t kOnlineBatch = 10000;
constexpr uint32_t kMaxRounds = 100;

// Registry metrics whose per-request deltas the traced run records.
// Timers (*_us) are histograms and contribute their sum.
constexpr const char* kDeltaMetrics[] = {
    "opim.rrset.edges_examined",   "opim.rrset.shard_us",
    "opim.rrset.ingest_us",        "opim.rrset.index_merge_us",
    "opim.rrset.index_rebuild_us", "opim.select.celf_us",
    "opim.select.celf_pops",       "opim.select.celf_rescans",
    "opim.select.words_scanned",   "opim.select.warm_start_hits",
    "opim.select.warm_start_fallbacks", "opim.pool.idle_wait_us",
    "opim.pool.queue_wait_us",
};

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// User + system CPU seconds of the whole process (all threads, joined
/// ones included).
double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

double MetricValue(const opim::MetricsSnapshot& s, const char* name) {
  if (const auto* c = s.FindCounter(name)) {
    return static_cast<double>(c->value);
  }
  if (const auto* h = s.FindHistogram(name)) {
    return static_cast<double>(h->sum);
  }
  return 0.0;
}

struct Answer {
  std::vector<NodeId> seeds;
  double alpha = 0.0;
  double sigma_lower = 0.0;
  bool converged = false;
};

struct Request {
  uint64_t id = 0;
  bool traced = false;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;  // traced requests only
  Answer answer;
  std::string failure;  // empty = every check passed
  uint64_t sets = 0;
  uint64_t members = 0;
  uint64_t compressed_bytes = 0;
  uint32_t iterations = 0;  // batch
  uint32_t rounds = 0;      // online
  uint64_t speculative_used = 0;
  uint64_t speculative_discarded = 0;
  std::map<std::string, double> phases_ms;
  std::map<std::string, double> deltas;  // traced requests only
};

class Bench {
 public:
  Bench(const RunConfig& config, const opim::Graph& g, SpanRecorder& spans)
      : config_(config),
        g_(g),
        spans_(spans),
        untraced_(false),
        delta_(1.0 / g.num_nodes()),
        target_(1.0 - 1.0 / std::exp(1.0) - config.eps) {}

  /// Serves request `id`; traced requests record spans, CPU time and
  /// registry deltas.
  Request Serve(uint64_t id, bool traced) {
    Request r;
    r.id = id;
    r.traced = traced && spans_.enabled();
    SpanRecorder& spans = r.traced ? spans_ : untraced_;
    opim::MetricsSnapshot before;
    double cpu_before = 0.0;
    if (r.traced) {
      before = opim::MetricsRegistry::Default().Snapshot();
      cpu_before = CpuSeconds();
    }
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan root(spans, "request", 0, static_cast<int64_t>(id));
      if (config_.online) {
        RunOnline(&r, spans, root.id());
      } else {
        RunBatch(&r, spans, root.id());
      }
    }
    r.wall_ms = Ms(Clock::now() - start);
    if (r.traced) {
      r.cpu_ms = (CpuSeconds() - cpu_before) * 1e3;
      const opim::MetricsSnapshot after =
          opim::MetricsRegistry::Default().Snapshot();
      for (const char* name : kDeltaMetrics) {
        r.deltas[name] = MetricValue(after, name) - MetricValue(before, name);
      }
    }
    r.failure = Check(r.answer);
    return r;
  }

  double target() const { return target_; }

 private:
  void RunBatch(Request* r, SpanRecorder& spans, uint64_t parent) {
    opim::OpimCOptions options;
    options.seed = config_.seed + r->id;
    options.num_threads = config_.threads;
    ScopedSpan span(spans, "core.run_opimc", parent,
                    static_cast<int64_t>(r->id));
    const opim::OpimCResult res = opim::RunOpimC(
        g_, config_.model, config_.k, config_.eps, delta_, options);
    span.Close();
    r->answer.seeds = res.seeds;
    r->answer.alpha = res.alpha;
    r->answer.sigma_lower = res.trace.empty() ? 0.0 : res.trace.back().sigma_lower;
    r->answer.converged =
        res.guardrails.stop_reason == opim::StopReason::kConverged;
    r->sets = res.num_rr_sets;
    r->members = res.total_rr_size;
    r->compressed_bytes = res.rr_compressed_bytes;
    r->iterations = res.iterations;
    r->speculative_used = res.speculative_sets_used;
    r->speculative_discarded = res.speculative_sets_discarded;
    double generate = 0.0, greedy = 0.0, bounds = 0.0;
    for (const opim::OpimCIteration& it : res.trace) {
      generate += it.generate_seconds;
      greedy += it.greedy_seconds;
      bounds += it.bounds_seconds;
    }
    r->phases_ms["generate"] = generate * 1e3;
    r->phases_ms["greedy"] = greedy * 1e3;
    r->phases_ms["bounds"] = bounds * 1e3;
  }

  void RunOnline(Request* r, SpanRecorder& spans, uint64_t parent) {
    const auto id = static_cast<int64_t>(r->id);
    Clock::time_point t = Clock::now();
    const uint64_t ctor_span = spans.Begin("core.online_ctor", parent, id);
    opim::OnlineMaximizer om(g_, config_.model, config_.k, delta_,
                             config_.seed + r->id);
    spans.End(ctor_span);
    r->phases_ms["ctor"] = Ms(Clock::now() - t);
    double advance_ms = 0.0, query_ms = 0.0;
    opim::OnlineSnapshotAll snap;
    while (r->rounds < kMaxRounds) {
      ++r->rounds;
      t = Clock::now();
      const uint64_t advance_span = spans.Begin("core.advance", parent, id);
      om.Advance(kOnlineBatch);
      spans.End(advance_span);
      const Clock::time_point q = Clock::now();
      advance_ms += Ms(q - t);
      const uint64_t query_span = spans.Begin("core.query_all", parent, id);
      snap = om.QueryAll();
      spans.End(query_span);
      query_ms += Ms(Clock::now() - q);
      if (snap.alpha_improved >= target_) {
        r->answer.converged = true;
        break;
      }
    }
    r->answer.seeds = snap.seeds;
    r->answer.alpha = snap.alpha_improved;
    r->answer.sigma_lower = snap.sigma_lower;
    r->sets = om.num_rr_sets();
    r->members = om.r1().total_size() + om.r2().total_size();
    r->compressed_bytes =
        om.r1().CompressedMemberBytes() + om.r2().CompressedMemberBytes();
    r->phases_ms["advance"] = advance_ms;
    r->phases_ms["query"] = query_ms;
  }

  /// Every answer must have converged, carry α >= 1 - 1/e - ε, and name
  /// exactly k distinct in-range seeds.
  std::string Check(const Answer& a) const {
    if (!a.converged) {
      return config_.online ? "session did not reach the target alpha"
                            : "stop reason is not converged";
    }
    // Tolerance for the library computing the target in another order.
    if (a.alpha < target_ - 1e-12) return "alpha below 1 - 1/e - eps";
    if (a.seeds.size() != config_.k) return "seed set size is not k";
    std::vector<NodeId> sorted = a.seeds;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      return "duplicate seeds";
    }
    if (!sorted.empty() && sorted.back() >= g_.num_nodes()) {
      return "seed out of range";
    }
    return "";
  }

  const RunConfig& config_;
  const opim::Graph& g_;
  SpanRecorder& spans_;
  SpanRecorder untraced_;
  double delta_;
  double target_;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void AppendRequest(const Request& r, opim::JsonWriter& w) {
  w.BeginObject();
  w.Key("id").Value(r.id);
  w.Key("traced").Value(r.traced);
  w.Key("wall_ms").Value(r.wall_ms);
  w.Key("cpu_ms").Value(r.cpu_ms);
  w.Key("failure").Value(r.failure);
  w.Key("alpha").Value(r.answer.alpha);
  w.Key("sets").Value(r.sets);
  w.Key("members").Value(r.members);
  w.Key("compressed_bytes").Value(r.compressed_bytes);
  w.Key("iterations").Value(static_cast<uint64_t>(r.iterations));
  w.Key("rounds").Value(static_cast<uint64_t>(r.rounds));
  w.Key("speculative_used").Value(r.speculative_used);
  w.Key("speculative_discarded").Value(r.speculative_discarded);
  w.Key("phases_ms").BeginObject();
  for (const auto& [name, ms] : r.phases_ms) w.Key(name).Value(ms);
  w.EndObject();
  w.Key("deltas").BeginObject();
  for (const auto& [name, value] : r.deltas) w.Key(name).Value(value);
  w.EndObject();
  w.EndObject();
}

}  // namespace

int RunWorkload(const RunConfig& config, std::string* report) {
  const Fingerprint fp = HostFingerprint(config.threads);
  if (!fp.TimingsReportable()) {
    std::fprintf(stderr,
                 "perfbench: refusing to time a sanitizer or "
                 "fault-injection build\n");
    return -1;
  }
  SpanRecorder spans(config.trace);

  // setup_s: LoadOpimg with checksum and structure validation on (the
  // defaults), file warm in the page cache after one untimed load. The
  // previous mapping is released first, so that two resident copies of
  // the graph never set peak_rss_mb.
  std::vector<double> load_seconds;
  std::optional<opim::Graph> graph;
  for (uint32_t i = 0; i <= kSetupLoads; ++i) {
    graph.reset();
    ScopedSpan span(spans, "graph.load", 0, -1);
    const Clock::time_point start = Clock::now();
    opim::Result<opim::Graph> loaded = opim::LoadOpimg(config.graph_path);
    const double seconds = Ms(Clock::now() - start) / 1e3;
    if (!loaded.ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   loaded.status().ToString().c_str());
      return -1;
    }
    if (i > 0) load_seconds.push_back(seconds);
    graph.emplace(std::move(loaded).ValueOrDie());
  }
  const opim::Graph& g = *graph;

  // graph.view_build probe: the SamplingView that RunOpimC and the
  // OnlineMaximizer constructor build internally, at the workload's
  // thread count (OnlineMaximizer builds it without a pool).
  std::vector<double> view_build_ms;
  uint64_t view_bytes = 0;
  if (config.trace) {
    std::unique_ptr<opim::ThreadPool> pool;
    if (!config.online && config.threads > 1) {
      pool = std::make_unique<opim::ThreadPool>(config.threads);
    }
    for (uint32_t i = 0; i < kViewProbes; ++i) {
      ScopedSpan span(spans, "graph.view_build", 0, -1);
      const Clock::time_point start = Clock::now();
      const opim::SamplingView view(g, opim::SamplingViewPartsFor(config.model),
                                    pool.get());
      view_build_ms.push_back(Ms(Clock::now() - start));
      view_bytes = view.MemoryFootprintBytes();
    }
  }

  Bench bench(config, g, spans);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  auto account = [&](const Request& r) {
    ++attempted;
    if (!r.failure.empty()) {
      ++failed;
      std::fprintf(stderr, "perfbench: request %llu failed: %s\n",
                   static_cast<unsigned long long>(r.id), r.failure.c_str());
    }
  };

  // Request 0, run again after the window to check determinism.
  Request reference;
  for (uint32_t i = 0; i < kWarmup; ++i) {
    Request r = bench.Serve(i, false);
    account(r);
    if (i == 0) reference = std::move(r);
  }

  // Timed window: closed loop, one client, no think time. The traced run
  // alternates untraced and traced requests so that both halves see the
  // same drift; their p50 ratio is the trace overhead.
  std::vector<Request> timed;
  const Clock::time_point window_start = Clock::now();
  const double cpu_start = CpuSeconds();
  double window_seconds = 0.0;
  for (uint64_t id = kWarmup;; ++id) {
    const bool traced = config.trace && (id - kWarmup) % 2 == 1;
    timed.push_back(bench.Serve(id, traced));
    account(timed.back());
    window_seconds = Ms(Clock::now() - window_start) / 1e3;
    const bool enough = timed.size() >= kMinRequests;
    if ((window_seconds >= config.seconds && enough) ||
        window_seconds >= 4 * config.seconds) {
      break;
    }
  }
  const double window_cpu_seconds = CpuSeconds() - cpu_start;

  // Determinism: request 0 again must give bit-identical seeds and α.
  const Request rerun = bench.Serve(reference.id, false);
  account(rerun);
  const bool deterministic =
      rerun.answer.seeds == reference.answer.seeds &&
      std::memcmp(&rerun.answer.alpha, &reference.answer.alpha,
                  sizeof(double)) == 0;
  if (!deterministic) {
    ++failed;
    std::fprintf(stderr, "perfbench: re-run of request %llu differs\n",
                 static_cast<unsigned long long>(reference.id));
  }

  // Spread check, outside timing: σ_l must not exceed the Monte-Carlo
  // spread of request 0's seeds by more than three standard errors.
  const opim::SpreadEstimator estimator(g, config.model, config.threads);
  const opim::SpreadEstimator::EstimateResult spread =
      estimator.EstimateWithError(reference.answer.seeds,
                                  config.spread_samples, config.seed);
  const bool spread_ok =
      spread.mean + 3.0 * spread.stderr_ >= reference.answer.sigma_lower;
  ++attempted;
  if (!spread_ok) {
    ++failed;
    std::fprintf(stderr,
                 "perfbench: sigma_l %.3f exceeds Monte-Carlo %.3f + 3*%.3f\n",
                 reference.answer.sigma_lower, spread.mean, spread.stderr_);
  }

  const opim::ResourceUsage usage = opim::ReadResourceUsage();

  if (config.trace) {
    const opim::Status st = spans.Write(config.trace_path, config.workload);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
      return -1;
    }
  }

  opim::JsonWriter w;
  w.BeginObject();
  w.Key("workload").Value(config.workload);
  w.Key("fingerprint");
  fp.AppendTo(w);
  w.Key("graph").BeginObject();
  w.Key("n").Value(static_cast<uint64_t>(g.num_nodes()));
  w.Key("m").Value(static_cast<uint64_t>(g.num_edges()));
  w.EndObject();
  w.Key("target_alpha").Value(bench.target());
  w.Key("setup_load_s").BeginArray();
  for (double s : load_seconds) w.Value(s);
  w.EndArray();
  w.Key("setup_s").Value(Median(load_seconds));
  w.Key("warmup").Value(static_cast<uint64_t>(kWarmup));
  w.Key("window_s").Value(window_seconds);
  w.Key("window_cpu_s").Value(window_cpu_seconds);
  w.Key("requests").BeginArray();
  for (const Request& r : timed) AppendRequest(r, w);
  w.EndArray();
  w.Key("reference");
  AppendRequest(reference, w);
  w.Key("deterministic").Value(deterministic);
  w.Key("spread").BeginObject();
  w.Key("samples").Value(spread.num_samples);
  w.Key("mean").Value(spread.mean);
  w.Key("stderr").Value(spread.stderr_);
  w.Key("sigma_lower").Value(reference.answer.sigma_lower);
  w.Key("ok").Value(spread_ok);
  w.EndObject();
  w.Key("view_build_ms").BeginArray();
  for (double ms : view_build_ms) w.Value(ms);
  w.EndArray();
  w.Key("view_bytes").Value(view_bytes);
  w.Key("spans").Value(static_cast<uint64_t>(spans.size()));
  w.Key("peak_rss_bytes").Value(usage.peak_rss_bytes);
  w.Key("attempted").Value(attempted);
  w.Key("failed").Value(failed);
  w.EndObject();
  *report = w.str();
  return static_cast<int>(failed);
}

}  // namespace perfbench
