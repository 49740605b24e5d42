// opim_cli — command-line front end for the opim library.
//
// Subcommands:
//   gen      --dataset=<name> --scale=<e> --out=<path>         make a
//            synthetic dataset and save it (.opimg if *.opimg, else text)
//   convert  --in=<edgelist> --out=<path> [--undirected] [--wcc]
//            any -> any; --wcc keeps the largest weakly-connected
//            component (the conventional SNAP preprocessing)
//   stats    --graph=<path>                                    Table-2 row
//   run      --graph=<path> --algo=<name> --k=<k> [--eps=0.1]
//            [--model=IC|LT] [--delta=1/n] [--mc=10000]
//            [--threads=1] [--query-ks=5,10,50]
//            [--metrics-json=<path>]
//            [--metrics-csv=<path>]                            one IM run
//   evaluate --graph=<path> [--mc=10000] <seed ids...>         MC spread
//            of an explicit seed set, with a 95% CI
//   online   --graph=<path> --k=<k> [--batch=10000]
//            [--rounds=20] [--target=0.9] [--model=IC|LT]
//            [--threads=1] [--metrics-json=<path>]             OPIM session
//
// Global flags: --log-level=debug|info|warn|error|off (default warn).
//
// --model=LT (run, evaluate, online) refuses, with exit 1, a graph where
// some node's in-weights sum past 1: LT defines no spread there.
//
// run and online refuse, with exit 1, a --k that is not an integer in
// [1, n], an --eps or --delta that is not a number strictly between 0
// and 1 (where the algorithm uses them: the opim-c variants, imm, tim,
// ssa-fix, dssa-fix, and online's --delta; the 1/n default of --delta
// is 1, and refused, on a one-node graph), a --threads that is not an
// integer below 2^32 (0 = one thread per hardware thread), a --seed that
// is not an unsigned 64-bit integer, an online --batch below 2 (each
// round must give both pools a set) and an online --rounds below 1. run
// also refuses imm, tim, ssa-fix and dssa-fix on a graph of fewer than 2
// nodes, and tim on a graph without edges.
//
// --threads means the same for run and online: it sizes the thread pool
// and fixes each batch's shard count, so seeds and α are a function of
// (--seed, resolved thread count). Both report threads_requested and
// threads_resolved.
//
// Graph paths ending in .opimg load/save the memory-mapped binary format
// (graph/graph_mmap.h; build with tools/graph_pack or
// `convert --out=x.opimg`); anything else is a text edge list. On a text
// edge list every node id run and evaluate print or take (seeds, query
// answers, the LT refusal) is the file's own; convert and graph_pack
// renumber nodes in order of first appearance.
//
// Run guardrails (run with opim-c*, and online; see docs/robustness.md):
//   --deadline-ms=<ms>   wall-clock budget; the run degrades gracefully at
//                        the next safe point and still reports (seeds, α)
//   --max-rr-mb=<mb>     RR-pool memory budget in MiB (fractional ok)
//   --spill-dir=<dir>    (run with opim-c*) out-of-core RR tier: once the
//                        pools cross half the --max-rr-mb budget, cold
//                        compressed chunks spill to an unlinked file in
//                        <dir> and the run continues; seeds and α are
//                        byte-identical to the fully-resident run
//   --checkpoint-dir=<d> (run with opim-c*) crash-safe checkpointing:
//                        atomically rewrite <d>/opimc.opimss at the top of
//                        each doubling iteration (write-to-temp + fsync +
//                        rename), and once more when a deadline / memory /
//                        signal guardrail trips
//   --checkpoint-every=N checkpoint every N-th iteration (default 1)
//   --query-ks=<list>    (run with opim-c*) answer additional seed-set
//                        sizes from one run: a comma-separated list of
//                        k' <= k (e.g. --query-ks=5,10,50). Each k' gets
//                        its own (seeds, σ_l, σ_upper, α) — read off the
//                        final iteration's selection trace, no re-run —
//                        printed as `query k=...` lines and recorded in
//                        the report's "queries" section. Each answer holds
//                        with probability >= 1 - δ on its own; the answers
//                        share one pair of pools and one failure budget,
//                        so they do not all hold jointly at that
//                        probability. Entries must be positive integers
//                        <= --k with no duplicates.
//   --resume=<snapshot>  resume an opim-c* run from a .opimss checkpoint;
//                        the snapshot's (k, eps, delta, seed, threads,
//                        bound, model) override the flags, and the graph
//                        must match the snapshot's fingerprint. Resuming a
//                        boundary checkpoint reproduces the uninterrupted
//                        run's seeds and alpha bit-for-bit.
//   SIGINT/SIGTERM       first signal = graceful cancel (same degradation,
//                        plus a final checkpoint when --checkpoint-dir is
//                        set); second signal = immediate _exit(128 + sig)
//
// Exit codes: 0 converged, 1 error, 2 usage, and for guardrail stops
// 3 deadline, 4 memory_budget, 5 cancelled, 6 worker_failure,
// 7 spill_failure. A guardrail exit still prints seeds/alpha and writes
// the full --metrics-json report (stop_reason, deadline_slack_ms,
// peak_rr_bytes, rr_budget_bytes, cancel_latency_ms). A second
// SIGINT/SIGTERM skips all of that and exits 130/143 immediately.
//
// --metrics-json writes a RunReport (schema "opim.run_report.v1"): run
// info, numeric results, per-iteration/round phase timings, and a full
// MetricsSnapshot of the telemetry registry. --metrics-csv writes just the
// iteration rows as CSV. See docs/observability.md.
//
// --trace-json=<path> (run, online) records execution spans for the whole
// command and writes a Chrome-trace/Perfetto file (schema "opim.trace.v1")
// at exit; spans are only captured in OPIM_TELEMETRY builds (other builds
// emit a valid file with zero spans). --progress (run, online) prints a
// once-per-second status line to stderr: elapsed time, iterations, RR
// sets, peak RR footprint, resident-set size, page faults, and deadline
// slack. Both are validated by tools/report_lint. Every report also
// carries the process's peak_rss_bytes and major/minor page-fault
// counters in its results section.
//
// Algorithms for `run`: opim-c+ (default), opim-c0, opim-c', imm, tim,
// ssa-fix, dssa-fix, mc-greedy, degree, degree-discount, pagerank,
// two-hop, irie.

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baselines/dssa_fix.h"
#include "baselines/heuristics.h"
#include "baselines/imm.h"
#include "baselines/mc_greedy.h"
#include "baselines/ssa_fix.h"
#include "baselines/tim.h"
#include "core/online_maximizer.h"
#include "core/opim_c.h"
#include "diffusion/cascade.h"
#include "graph/graph_io.h"
#include "graph/graph_mmap.h"
#include "graph/transform.h"
#include "harness/datasets.h"
#include "harness/flags.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "rrset/snapshot.h"
#include "support/fault_inject.h"
#include "support/resource_usage.h"
#include "support/run_control.h"
#include "support/signal_guard.h"
#include "support/stopwatch.h"
#include "support/thread_pool.h"

namespace opim::cli {

namespace {

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Loads a graph; for a text edge list, `file_ids` (when set) receives
/// each node's id in the file. An .opimg graph's node ids are its own, so
/// it leaves `file_ids` empty.
Result<Graph> LoadAny(const std::string& path, bool undirected,
                      std::vector<uint64_t>* file_ids = nullptr) {
  if (HasSuffix(path, ".opimg")) return LoadOpimg(path);
  EdgeListOptions opt;
  opt.undirected = undirected;
  return LoadEdgeList(path, opt, file_ids);
}

/// The id the input file gives node `v` (LoadAny's `file_ids`; empty
/// means the ids are the node ids).
uint64_t FileId(const std::vector<uint64_t>& file_ids, NodeId v) {
  return file_ids.empty() ? v : file_ids[v];
}

Status SaveAny(const Graph& g, const std::string& path) {
  if (HasSuffix(path, ".opimg")) return SaveOpimg(g, path);
  return SaveEdgeList(g, path);
}

DiffusionModel ModelFromFlags(const Flags& flags) {
  return flags.GetString("model", "IC") == "LT"
             ? DiffusionModel::kLinearThreshold
             : DiffusionModel::kIndependentCascade;
}

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

/// LT defines a spread only when every node's in-weights sum to at most
/// 1 (the library's samplers check it as an API contract and abort), so
/// each LT command refuses such a graph once it is loaded, naming the
/// first node past the bound (by its id in the file) and its sum.
Status CheckModelWeights(const Graph& g, DiffusionModel model,
                         const std::vector<uint64_t>& file_ids) {
  if (model != DiffusionModel::kLinearThreshold) return Status::OK();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const double sum = g.InWeightSum(v);
    if (sum > 1.0 + 1e-9) {
      char text[32];
      std::snprintf(text, sizeof(text), "%.9g", sum);
      return Status::InvalidArgument(
          "--model=LT needs every node's in-weights to sum to at most 1; "
          "node " + std::to_string(FileId(file_ids, v)) + " sums to " +
          text);
    }
  }
  return Status::OK();
}

/// Strict --query-ks parse, in graph_io's entry-precise error style:
/// comma-separated seed-set sizes, each all-digits (so "-1", "+2", "3a"
/// and empty all fail), in [1, k], no duplicates. On success `out` holds
/// the sizes sorted ascending.
Status ParseQueryKs(const std::string& spec, uint32_t k,
                    std::vector<uint32_t>* out) {
  out->clear();
  size_t start = 0;
  size_t entry = 0;
  for (;;) {
    const size_t comma = spec.find(',', start);
    const size_t end = comma == std::string::npos ? spec.size() : comma;
    const std::string tok = spec.substr(start, end - start);
    ++entry;
    const auto entry_error = [&](const std::string& what) {
      return Status::InvalidArgument("--query-ks: " + what + " at entry " +
                                     std::to_string(entry) + ": '" + tok +
                                     "'");
    };
    if (tok.empty()) return entry_error("empty seed-set size");
    for (char c : tok) {
      if (!std::isdigit(static_cast<unsigned char>(c))) {
        return entry_error("not an unsigned integer");
      }
    }
    errno = 0;
    char* parse_end = nullptr;
    const unsigned long long v = std::strtoull(tok.c_str(), &parse_end, 10);
    if (errno == ERANGE || parse_end != tok.c_str() + tok.size() ||
        v > UINT32_MAX) {
      return entry_error("out of range");
    }
    if (v < 1) return entry_error("seed-set size must be >= 1");
    if (v > k) return entry_error("exceeds --k=" + std::to_string(k));
    if (std::find(out->begin(), out->end(), static_cast<uint32_t>(v)) !=
        out->end()) {
      return entry_error("duplicate seed-set size");
    }
    out->push_back(static_cast<uint32_t>(v));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  std::sort(out->begin(), out->end());
  return Status::OK();
}

/// Reads --`name` strictly (ParseDecimalU64) into `*value`, which keeps
/// its default when the flag is absent, and requires lo <= value <= hi.
/// The error names the flag and the value.
Status ReadCountFlag(const Flags& flags, const std::string& name,
                     uint64_t lo, uint64_t hi, const std::string& range,
                     uint64_t* value) {
  std::string text = std::to_string(*value);
  if (flags.Has(name)) {
    text = flags.GetString(name, "");
    if (!ParseDecimalU64(text, value)) {
      return Status::InvalidArgument("--" + name + "=" + text +
                                     ": not an unsigned integer");
    }
  }
  if (*value < lo || *value > hi) {
    return Status::InvalidArgument("--" + name + "=" + text + ": must be " +
                                   range);
  }
  return Status::OK();
}

/// Reads --`name` strictly (ParseProbability) into `*value`, which keeps
/// its default when the flag is absent, and requires 0 < value < 1.
Status ReadOpenUnitFlag(const Flags& flags, const std::string& name,
                        double* value) {
  char text[32];
  std::snprintf(text, sizeof(text), "%g", *value);
  std::string given = text;
  if (flags.Has(name)) given = flags.GetString(name, "");
  if ((flags.Has(name) && !ParseProbability(given, value)) ||
      !(*value > 0.0 && *value < 1.0)) {
    return Status::InvalidArgument("--" + name + "=" + given +
                                   ": must be a number strictly between 0 "
                                   "and 1");
  }
  return Status::OK();
}

/// --threads: 0 (one per hardware thread) or a thread count, below 2^32.
Status ReadThreadCount(const Flags& flags, unsigned* threads) {
  uint64_t value = 1;
  Status st = ReadCountFlag(flags, "threads", 0, UINT32_MAX,
                            "0 (one per hardware thread) or a thread "
                            "count below 2^32",
                            &value);
  *threads = static_cast<unsigned>(value);
  return st;
}

/// --k for a graph of `n` nodes: an integer in [1, n].
Status ReadSeedCount(const Flags& flags, uint32_t n, uint32_t* k) {
  uint64_t value = 50;
  Status st = ReadCountFlag(flags, "k", 1, n,
                            "between 1 and the graph's " + std::to_string(n) +
                                " nodes",
                            &value);
  *k = static_cast<uint32_t>(value);
  return st;
}

/// Arms `control` from the guardrail flags and binds the signal guard's
/// cancel flag, so SIGINT/SIGTERM degrade the run gracefully.
void ArmRunControl(const Flags& flags, const SignalGuard& guard,
                   RunControl* control) {
  if (flags.Has("deadline-ms")) {
    control->SetDeadlineAfterMillis(
        static_cast<int64_t>(flags.GetUint("deadline-ms", 0)));
  }
  const double budget_mb = flags.GetDouble("max-rr-mb", 0.0);
  if (budget_mb > 0.0) {
    control->SetMemoryBudgetBytes(
        static_cast<uint64_t>(budget_mb * 1048576.0));
  }
  control->BindCancelFlag(guard.flag());
}

/// Records the guardrail outcome in the report (AddInfo("stop_reason") +
/// numeric results) and prints the stop reason line scripts grep for.
void ReportGuardrails(const OpimCGuardrails& gr, RunReport* report) {
  std::printf("stop_reason=%s\n", StopReasonName(gr.stop_reason));
  report->AddInfo("stop_reason", StopReasonName(gr.stop_reason));
  report->AddResult("deadline_slack_ms",
                    gr.had_deadline ? gr.deadline_slack_seconds * 1e3 : 0.0);
  report->AddResult("peak_rr_bytes", static_cast<double>(gr.peak_rr_bytes));
  report->AddResult("rr_budget_bytes",
                    static_cast<double>(gr.memory_budget_bytes));
  report->AddResult("cancel_latency_ms", gr.stop_latency_seconds * 1e3);
}

/// Snapshots the telemetry registry into `report` and writes the JSON/CSV
/// outputs requested by --metrics-json / --metrics-csv. Prints the JSON
/// path on success so scripts can pick it up.
Status WriteReportOutputs(RunReport* report, const std::string& json_path,
                          const std::string& csv_path) {
  // Process-level resource accounting rides along in every report: peak
  // resident set plus the page-fault split that distinguishes disk-backed
  // faults (major: cold mmap loads, spill fault-ins) from lazy
  // first-touch mapping faults (minor).
  const ResourceUsage ru = ReadResourceUsage();
  report->AddResult("peak_rss_bytes", static_cast<double>(ru.peak_rss_bytes));
  report->AddResult("major_page_faults",
                    static_cast<double>(ru.major_page_faults));
  report->AddResult("minor_page_faults",
                    static_cast<double>(ru.minor_page_faults));
  report->SetMetrics(MetricsRegistry::Default().Snapshot());
  if (!json_path.empty()) {
    Status st = report->WriteJson(json_path);
    if (!st.ok()) return st;
    std::printf("metrics_json=%s\n", json_path.c_str());
  }
  if (!csv_path.empty()) {
    Status st = report->WriteIterationsCsv(csv_path);
    if (!st.ok()) return st;
    std::printf("metrics_csv=%s\n", csv_path.c_str());
  }
  return Status::OK();
}

/// Scopes one --trace-json recording session: starts it when a path was
/// given, and Finish() stops it and writes the Chrome-trace file (printing
/// the `trace_json=<path>` line scripts grep for).
class TraceSessionScope {
 public:
  explicit TraceSessionScope(std::string path) : path_(std::move(path)) {
    if (!path_.empty()) TraceRecorder::Default().StartSession();
  }
  ~TraceSessionScope() {
    if (!path_.empty()) TraceRecorder::Default().StopSession();
  }

  Status Finish() {
    if (path_.empty()) return Status::OK();
    TraceRecorder& recorder = TraceRecorder::Default();
    recorder.StopSession();
    Status st = recorder.WriteChromeJson(path_);
    if (!st.ok()) return st;
    std::printf("trace_json=%s\n", path_.c_str());
    return Status::OK();
  }

 private:
  const std::string path_;
};

/// Starts the --progress heartbeat when requested; the unique_ptr's
/// destruction (or reset) emits the final line and joins the thread.
std::unique_ptr<ProgressHeartbeat> MaybeStartProgress(const Flags& flags,
                                                      const RunControl* ctl) {
  if (!flags.GetBool("progress", false)) return nullptr;
  return std::make_unique<ProgressHeartbeat>(ctl);
}

int CmdGen(const Flags& flags) {
  const std::string name = flags.GetString("dataset", "pokec-sim");
  const std::string out = flags.GetString("out", "");
  if (out.empty()) return Fail(Status::InvalidArgument("--out is required"));
  auto g = MakeDataset(name, static_cast<uint32_t>(flags.GetUint("scale", 13)),
                       flags.GetUint("seed", 1));
  if (!g.ok()) return Fail(g.status());
  Status st = SaveAny(g.ValueOrDie(), out);
  if (!st.ok()) return Fail(st);
  std::printf("wrote %s: n=%u m=%llu\n", out.c_str(),
              g.ValueOrDie().num_nodes(),
              static_cast<unsigned long long>(g.ValueOrDie().num_edges()));
  return 0;
}

int CmdConvert(const Flags& flags) {
  const std::string in = flags.GetString("in", "");
  const std::string out = flags.GetString("out", "");
  if (in.empty() || out.empty()) {
    return Fail(Status::InvalidArgument("--in and --out are required"));
  }
  auto g = LoadAny(in, flags.GetBool("undirected", false));
  if (!g.ok()) return Fail(g.status());
  Graph graph = std::move(g).ValueOrDie();
  if (flags.GetBool("wcc", false)) {
    // The conventional preprocessing step for SNAP data: keep only the
    // largest weakly-connected component.
    uint32_t before = graph.num_nodes();
    graph = LargestWeaklyConnectedComponent(graph);
    std::printf("wcc: kept %u of %u nodes\n", graph.num_nodes(), before);
  }
  Status st = SaveAny(graph, out);
  if (!st.ok()) return Fail(st);
  std::printf("converted %s -> %s\n", in.c_str(), out.c_str());
  return 0;
}

int CmdStats(const Flags& flags) {
  auto g = LoadAny(flags.GetString("graph", ""),
                   flags.GetBool("undirected", false));
  if (!g.ok()) return Fail(g.status());
  GraphStats s = ComputeStats(g.ValueOrDie());
  std::printf("nodes          %u\n", s.num_nodes);
  std::printf("edges          %llu\n",
              static_cast<unsigned long long>(s.num_edges));
  std::printf("avg_degree     %.3f\n", s.average_degree);
  std::printf("max_in_degree  %llu\n",
              static_cast<unsigned long long>(s.max_in_degree));
  std::printf("max_out_degree %llu\n",
              static_cast<unsigned long long>(s.max_out_degree));
  std::printf("sources        %u\nsinks          %u\n", s.num_sources,
              s.num_sinks);
  std::printf("max_in_weight  %.6f %s\n", g.ValueOrDie().MaxInWeightSum(),
              g.ValueOrDie().MaxInWeightSum() <= 1.0 + 1e-9
                  ? "(LT-feasible)"
                  : "(NOT LT-feasible)");
  return 0;
}

int CmdRun(const Flags& flags) {
  std::vector<uint64_t> file_ids;
  auto graph_or = LoadAny(flags.GetString("graph", ""),
                          flags.GetBool("undirected", false), &file_ids);
  if (!graph_or.ok()) return Fail(graph_or.status());
  const Graph& g = graph_or.ValueOrDie();
  DiffusionModel model = ModelFromFlags(flags);
  uint32_t k = 0;
  double eps = 0.1;
  double delta = 1.0 / g.num_nodes();
  uint64_t seed = 1;
  std::string algo = flags.GetString("algo", "opim-c+");
  unsigned threads = 1;

  // --resume: the snapshot's run identity (k, ε, δ, seed, threads,
  // bound, model) is authoritative — the continued run must be the same
  // run, or the certificate it reports would describe a different
  // algorithm. Conflicting flags are overridden; a different graph is a
  // hard error (fingerprint check). The engine re-verifies the same
  // facts with OPIM_CHECKs as a second line of defense.
  std::unique_ptr<RRPoolSnapshot> resume;
  double resume_load_seconds = 0.0;
  const std::string resume_path = flags.GetString("resume", "");
  if (!resume_path.empty()) {
    Stopwatch load_watch;
    Result<RRPoolSnapshot> snap = LoadSnapshot(resume_path);
    if (!snap.ok()) return Fail(snap.status());
    resume = std::make_unique<RRPoolSnapshot>(std::move(snap).ValueOrDie());
    resume_load_seconds = load_watch.ElapsedSeconds();
    const SnapshotRunState& rs = resume->run;
    if (rs.graph_nodes != g.num_nodes() || rs.graph_edges != g.num_edges()) {
      return Fail(Status::InvalidArgument(
          resume_path + ": snapshot graph fingerprint (" +
          std::to_string(rs.graph_nodes) + " nodes, " +
          std::to_string(rs.graph_edges) + " edges) does not match --graph (" +
          std::to_string(g.num_nodes()) + " nodes, " +
          std::to_string(g.num_edges()) + " edges)"));
    }
    if (rs.weights_checksum != 0) {
      return Fail(Status::InvalidArgument(
          resume_path + ": snapshot was written by a weighted run, which "
                        "this command cannot reconstruct"));
    }
    if (rs.model > static_cast<uint32_t>(DiffusionModel::kLinearThreshold) ||
        rs.bound > static_cast<uint32_t>(BoundKind::kLeskovec)) {
      return Fail(Status::InvalidArgument(
          resume_path + ": snapshot declares an unknown model or bound"));
    }
    model = static_cast<DiffusionModel>(rs.model);
    k = rs.k;
    eps = rs.eps;
    delta = rs.delta;
    seed = rs.run_seed;
    threads = rs.num_threads;
    const BoundKind bound = static_cast<BoundKind>(rs.bound);
    algo = bound == BoundKind::kBasic      ? "opim-c0"
           : bound == BoundKind::kLeskovec ? "opim-c'"
                                           : "opim-c+";
  }

  // --k, --eps, --delta, --seed and --threads, and --query-ks below, are
  // read after the resume block: a snapshot's run identity overrides the
  // flags.
  const bool is_opimc =
      algo == "opim-c+" || algo == "opim-c0" || algo == "opim-c'";
  const bool is_ris_baseline = algo == "imm" || algo == "tim" ||
                               algo == "ssa-fix" || algo == "dssa-fix";
  if (resume == nullptr) {
    Status st = ReadSeedCount(flags, g.num_nodes(), &k);
    if (st.ok() && (is_opimc || is_ris_baseline)) {
      st = ReadOpenUnitFlag(flags, "eps", &eps);
      if (st.ok()) st = ReadOpenUnitFlag(flags, "delta", &delta);
    }
    if (st.ok()) {
      st = ReadCountFlag(flags, "seed", 0, UINT64_MAX,
                         "an unsigned 64-bit integer", &seed);
    }
    if (st.ok()) st = ReadThreadCount(flags, &threads);
    if (!st.ok()) return Fail(st);
  }
  // The RIS baselines set δ = n^-ℓ, so their sample sizes divide by ln n,
  // and TIM's width estimate samples an edge.
  if (is_ris_baseline && g.num_nodes() < 2) {
    return Fail(Status::InvalidArgument(
        "--algo=" + algo +
        " needs a graph of at least 2 nodes; this one has " +
        std::to_string(g.num_nodes())));
  }
  if (algo == "tim" && g.num_edges() == 0) {
    return Fail(Status::InvalidArgument(
        "--algo=tim needs a graph with at least one edge; this one has " +
        std::to_string(g.num_nodes()) + " nodes and none"));
  }
  std::vector<uint32_t> query_ks;
  if (flags.Has("query-ks")) {
    if (!is_opimc) {
      return Fail(Status::InvalidArgument(
          "--query-ks is only supported with --algo=opim-c+/opim-c0/"
          "opim-c'"));
    }
    Status st = ParseQueryKs(flags.GetString("query-ks", ""), k, &query_ks);
    if (!st.ok()) return Fail(st);
  }
  // After the resume block: a snapshot's model overrides the flag.
  Status weights_st = CheckModelWeights(g, model, file_ids);
  if (!weights_st.ok()) return Fail(weights_st);

  RunReport report;
  report.AddInfo("command", "run");
  report.AddInfo("algorithm", algo);
  report.AddInfo("model", DiffusionModelName(model));
  report.AddInfo("graph", flags.GetString("graph", ""));
  report.AddResult("nodes", g.num_nodes());
  report.AddResult("edges", static_cast<double>(g.num_edges()));
  report.AddResult("k", k);
  report.AddResult("eps", eps);
  report.AddResult("delta", delta);
  report.AddResult("seed", static_cast<double>(seed));
  report.AddResult("threads_requested", threads);
  report.AddResult("threads_resolved",
                   ThreadPool::ResolveThreadCount(threads));

  // Guardrails apply to the OPIM-C variants (the anytime algorithms); the
  // baselines ignore them. The guard is installed for the whole command so
  // a second SIGINT forces an immediate _exit(128 + sig) — even while the
  // checkpoint-on-shutdown write is in an fsync (see SignalGuard).
  SignalGuard guard;
  RunControl control;
  ArmRunControl(flags, guard, &control);
  StopReason stop_reason = StopReason::kConverged;

  TraceSessionScope trace_scope(flags.GetString("trace-json", ""));
  std::unique_ptr<ProgressHeartbeat> progress =
      MaybeStartProgress(flags, &control);

  Stopwatch sw;
  std::vector<NodeId> seeds;
  uint64_t rr_sets = 0;
  if (is_opimc) {
    OpimCOptions o;
    o.seed = seed;
    o.num_threads = threads;
    o.query_ks = query_ks;
    o.bound = algo == "opim-c0"   ? BoundKind::kBasic
              : algo == "opim-c'" ? BoundKind::kLeskovec
                                  : BoundKind::kImproved;
    o.control = &control;
    o.spill_dir = flags.GetString("spill-dir", "");
    o.checkpoint_dir = flags.GetString("checkpoint-dir", "");
    o.checkpoint_every_iters =
        static_cast<uint32_t>(flags.GetUint("checkpoint-every", 1));
    o.resume = resume.get();
    OpimCResult r = RunOpimC(g, model, k, eps, delta, o);
    seeds = std::move(r.seeds);
    rr_sets = r.num_rr_sets;
    stop_reason = r.guardrails.stop_reason;
    std::printf("alpha=%.4f iterations=%u\n", r.alpha, r.iterations);
    // One line and one report row per --query-ks size, answered from the
    // final iteration's certificates.
    for (const OpimCQueryAnswer& q : r.queries) {
      std::printf("query k=%u alpha=%.4f sigma_lower=%.2f sigma_upper=%.2f"
                  " seeds:",
                  q.k, q.alpha, q.sigma_lower, q.sigma_upper);
      RunReport::QueryAnswer row;
      for (NodeId v : q.seeds) row.seeds.push_back(FileId(file_ids, v));
      for (uint64_t id : row.seeds) {
        std::printf(" %llu", static_cast<unsigned long long>(id));
      }
      std::printf("\n");
      row.k = q.k;
      row.alpha = q.alpha;
      row.sigma_lower = q.sigma_lower;
      row.sigma_upper = q.sigma_upper;
      report.AddQuery(std::move(row));
    }
    ReportGuardrails(r.guardrails, &report);
    report.AddResult("alpha", r.alpha);
    report.AddResult("iterations", r.iterations);
    report.AddResult("i_max", r.i_max);
    report.AddResult("total_rr_size", static_cast<double>(r.total_rr_size));
    // Storage compression, next to the guardrail bytes: the member pool's
    // group-varint footprint and raw_bytes/compressed_bytes (inline
    // singleton sets make the ratio exceed plain codec savings).
    report.AddResult("compressed_bytes",
                     static_cast<double>(r.rr_compressed_bytes));
    report.AddResult("compression_ratio",
                     r.rr_compressed_bytes > 0
                         ? static_cast<double>(r.rr_raw_member_bytes) /
                               static_cast<double>(r.rr_compressed_bytes)
                         : 0.0);
    if (!o.spill_dir.empty()) {
      report.AddResult("spill_chunks_spilled",
                       static_cast<double>(r.spill_chunks_spilled));
      report.AddResult("spill_chunks_faulted",
                       static_cast<double>(r.spill_chunks_faulted));
      report.AddResult("spilled_bytes",
                       static_cast<double>(r.spilled_bytes));
    }
    if (!o.checkpoint_dir.empty()) {
      report.AddResult("checkpoints_written",
                       static_cast<double>(r.checkpoints_written));
      report.AddResult("checkpoint_bytes_written",
                       static_cast<double>(r.checkpoint_bytes_written));
      report.AddResult("checkpoint_write_ms",
                       r.checkpoint_write_seconds * 1e3);
    }
    if (resume != nullptr) {
      report.AddInfo("resumed_from", resume_path);
      report.AddResult("resumed_from_iteration", r.resumed_from_iteration);
      report.AddResult("resume_load_ms", resume_load_seconds * 1e3);
    }
    for (size_t i = 0; i < r.trace.size(); ++i) {
      const OpimCIteration& it = r.trace[i];
      report.AddIteration()
          .Set("iteration", static_cast<double>(i + 1))
          .Set("theta1", static_cast<double>(it.theta1))
          .Set("sigma_lower", it.sigma_lower)
          .Set("sigma_upper", it.sigma_upper)
          .Set("alpha", it.alpha)
          .Set("generate_seconds", it.generate_seconds)
          .Set("greedy_seconds", it.greedy_seconds)
          .Set("bounds_seconds", it.bounds_seconds)
          .Set("rr_bytes", static_cast<double>(it.rr_bytes))
          .Set("rr_compressed_bytes",
               static_cast<double>(it.rr_compressed_bytes));
    }
  } else if (algo == "imm") {
    ImResult r = RunImm(g, model, k, eps, delta, {seed, 0});
    seeds = std::move(r.seeds);
    rr_sets = r.num_rr_sets;
  } else if (algo == "tim") {
    TimOptions o;
    o.seed = seed;
    ImResult r = RunTim(g, model, k, eps, delta, o);
    seeds = std::move(r.seeds);
    rr_sets = r.num_rr_sets;
  } else if (algo == "ssa-fix") {
    ImResult r = RunSsaFix(g, model, k, eps, delta, {seed, 0});
    seeds = std::move(r.seeds);
    rr_sets = r.num_rr_sets;
  } else if (algo == "dssa-fix") {
    ImResult r = RunDssaFix(g, model, k, eps, delta, {seed, 0});
    seeds = std::move(r.seeds);
    rr_sets = r.num_rr_sets;
  } else if (algo == "mc-greedy") {
    seeds = SelectMcGreedy(g, model, k, flags.GetUint("mc-greedy-samples", 1000),
                           seed);
  } else if (algo == "degree") {
    seeds = SelectByDegree(g, k);
  } else if (algo == "degree-discount") {
    seeds = SelectByDegreeDiscount(g, k, flags.GetDouble("dd-p", 0.01));
  } else if (algo == "pagerank") {
    seeds = SelectByPageRank(g, k);
  } else if (algo == "two-hop") {
    seeds = SelectByTwoHop(g, k);
  } else if (algo == "irie") {
    seeds = SelectByIrie(g, k);
  } else {
    return Fail(Status::InvalidArgument("unknown --algo: " + algo));
  }
  const double elapsed = sw.ElapsedSeconds();

  std::printf("algorithm=%s model=%s k=%u eps=%g delta=%g\n", algo.c_str(),
              DiffusionModelName(model), k, eps, delta);
  std::printf("time_seconds=%.3f rr_sets=%llu\n", elapsed,
              static_cast<unsigned long long>(rr_sets));
  std::printf("seeds:");
  for (NodeId v : seeds) {
    std::printf(" %llu",
                static_cast<unsigned long long>(FileId(file_ids, v)));
  }
  std::printf("\n");
  report.AddResult("time_seconds", elapsed);
  report.AddResult("rr_sets", static_cast<double>(rr_sets));
  report.AddResult("num_seeds", static_cast<double>(seeds.size()));

  const uint64_t mc = flags.GetUint("mc", 10000);
  if (mc > 0) {
    SpreadEstimator est(g, model);
    const double spread = est.Estimate(seeds, mc, seed);
    std::printf("expected_spread=%.2f (over %llu Monte-Carlo runs)\n",
                spread, static_cast<unsigned long long>(mc));
    report.AddResult("expected_spread", spread);
  }
  progress.reset();  // final heartbeat line before the report outputs
  Status trace_st = trace_scope.Finish();
  if (!trace_st.ok()) return Fail(trace_st);
  Status report_st =
      WriteReportOutputs(&report, flags.GetString("metrics-json", ""),
                         flags.GetString("metrics-csv", ""));
  if (!report_st.ok()) return Fail(report_st);
  return ExitCodeForStopReason(stop_reason);
}

int CmdEvaluate(const Flags& flags) {
  std::vector<uint64_t> file_ids;
  auto graph_or = LoadAny(flags.GetString("graph", ""),
                          flags.GetBool("undirected", false), &file_ids);
  if (!graph_or.ok()) return Fail(graph_or.status());
  const Graph& g = graph_or.ValueOrDie();
  const DiffusionModel model = ModelFromFlags(flags);
  Status weights_st = CheckModelWeights(g, model, file_ids);
  if (!weights_st.ok()) return Fail(weights_st);

  // Seeds come as positional ids, as the input file names its nodes.
  std::unordered_map<uint64_t, NodeId> node_of;
  for (NodeId v = 0; v < file_ids.size(); ++v) node_of.emplace(file_ids[v], v);
  std::vector<NodeId> seeds;
  for (const std::string& arg : flags.positional()) {
    uint64_t id = 0;
    NodeId v = kInvalidNode;
    if (ParseDecimalU64(arg, &id)) {
      if (file_ids.empty()) {
        if (id < g.num_nodes()) v = static_cast<NodeId>(id);
      } else if (const auto it = node_of.find(id); it != node_of.end()) {
        v = it->second;
      }
    }
    if (v == kInvalidNode) {
      return Fail(Status::InvalidArgument("bad seed id: " + arg));
    }
    seeds.push_back(v);
  }
  if (seeds.empty()) {
    return Fail(Status::InvalidArgument(
        "usage: opim_cli evaluate --graph=<path> <seed ids...>"));
  }

  const uint64_t mc = flags.GetUint("mc", 10000);
  SpreadEstimator est(g, model);
  auto r = est.EstimateWithError(seeds, mc, flags.GetUint("seed", 1));
  std::printf("model=%s seeds=%zu mc=%llu\n", DiffusionModelName(model),
              seeds.size(), static_cast<unsigned long long>(mc));
  std::printf("expected_spread=%.3f ci95=+-%.3f\n", r.mean,
              1.96 * r.stderr_);
  return 0;
}

int CmdOnline(const Flags& flags) {
  std::vector<uint64_t> file_ids;
  auto graph_or = LoadAny(flags.GetString("graph", ""),
                          flags.GetBool("undirected", false), &file_ids);
  if (!graph_or.ok()) return Fail(graph_or.status());
  const Graph& g = graph_or.ValueOrDie();
  const DiffusionModel model = ModelFromFlags(flags);
  Status weights_st = CheckModelWeights(g, model, file_ids);
  if (!weights_st.ok()) return Fail(weights_st);
  uint32_t k = 0;
  double delta = 1.0 / g.num_nodes();
  uint64_t batch = 10000;
  uint64_t rounds = 20;
  uint64_t seed = 1;
  unsigned threads = 1;
  Status st = ReadSeedCount(flags, g.num_nodes(), &k);
  if (st.ok()) st = ReadOpenUnitFlag(flags, "delta", &delta);
  if (st.ok()) {
    st = ReadCountFlag(flags, "batch", 2, UINT64_MAX, "at least 2", &batch);
  }
  if (st.ok()) {
    st = ReadCountFlag(flags, "rounds", 1, UINT32_MAX,
                       "between 1 and 4294967295", &rounds);
  }
  if (st.ok()) {
    st = ReadCountFlag(flags, "seed", 0, UINT64_MAX,
                       "an unsigned 64-bit integer", &seed);
  }
  if (st.ok()) st = ReadThreadCount(flags, &threads);
  if (!st.ok()) return Fail(st);
  const double target = flags.GetDouble("target", 0.9);
  const bool sequential = flags.GetBool("sequential", false);

  RunReport report;
  report.AddInfo("command", "online");
  report.AddInfo("model", DiffusionModelName(model));
  report.AddInfo("graph", flags.GetString("graph", ""));
  report.AddResult("nodes", g.num_nodes());
  report.AddResult("edges", static_cast<double>(g.num_edges()));
  report.AddResult("k", k);
  report.AddResult("delta", delta);
  report.AddResult("seed", static_cast<double>(seed));
  report.AddResult("batch", static_cast<double>(batch));
  report.AddResult("threads_requested", threads);
  report.AddResult("threads_resolved",
                   ThreadPool::ResolveThreadCount(threads));

  OnlineMaximizer om(g, model, k, delta, seed, threads);
  SignalGuard sig_guard;
  RunControl control;
  ArmRunControl(flags, sig_guard, &control);
  om.set_run_control(&control);
  TraceSessionScope trace_scope(flags.GetString("trace-json", ""));
  std::unique_ptr<ProgressHeartbeat> progress =
      MaybeStartProgress(flags, &control);
  double last_alpha = 0.0;
  std::printf("%10s  %8s  %8s  %8s\n", "rr_sets", "OPIM0", "OPIM+", "OPIM'");
  for (uint64_t r = 0; r < rounds; ++r) {
    Stopwatch watch;
    om.Advance(batch);
    const double advance_seconds = watch.ElapsedSeconds();
    watch.Restart();
    RunReport::Row& row = report.AddIteration();
    row.Set("round", static_cast<double>(r + 1));
    bool reached = false;
    if (sequential) {
      OnlineSnapshot snap = om.QuerySequential(BoundKind::kImproved);
      std::printf("%10llu  %8s  %8.4f  %8s   (sequential, all-rounds "
                  "validity)\n",
                  static_cast<unsigned long long>(om.num_rr_sets()), "-",
                  snap.alpha, "-");
      row.Set("rr_sets", static_cast<double>(om.num_rr_sets()))
          .Set("alpha", snap.alpha);
      last_alpha = snap.alpha;
      reached = snap.alpha >= target;
    } else {
      OnlineSnapshotAll snap = om.QueryAll();
      std::printf("%10llu  %8.4f  %8.4f  %8.4f\n",
                  static_cast<unsigned long long>(snap.theta_total),
                  snap.alpha_basic, snap.alpha_improved,
                  snap.alpha_leskovec);
      row.Set("rr_sets", static_cast<double>(snap.theta_total))
          .Set("alpha_basic", snap.alpha_basic)
          .Set("alpha_improved", snap.alpha_improved)
          .Set("alpha_leskovec", snap.alpha_leskovec);
      last_alpha = snap.alpha_improved;
      reached = snap.alpha_improved >= target;
    }
    row.Set("advance_seconds", advance_seconds)
        .Set("query_seconds", watch.ElapsedSeconds());
    if (reached) break;
    // A tripped guardrail ends the session after this round's query: the
    // snapshot just reported is the anytime answer at the pause point.
    if (control.Stopped()) break;
  }
  report.AddResult("rr_sets", static_cast<double>(om.num_rr_sets()));
  report.AddResult("alpha", last_alpha);
  const uint64_t compressed_bytes =
      om.r1().CompressedMemberBytes() + om.r2().CompressedMemberBytes();
  const uint64_t raw_bytes = om.r1().RawMemberBytes() + om.r2().RawMemberBytes();
  report.AddResult("compressed_bytes", static_cast<double>(compressed_bytes));
  report.AddResult("compression_ratio",
                   compressed_bytes > 0 ? static_cast<double>(raw_bytes) /
                                              static_cast<double>(compressed_bytes)
                                        : 0.0);
  const OpimCGuardrails gr = SummarizeGuardrails(control);
  ReportGuardrails(gr, &report);
  progress.reset();  // final heartbeat line before the report outputs
  Status trace_st = trace_scope.Finish();
  if (!trace_st.ok()) return Fail(trace_st);
  Status report_st = WriteReportOutputs(
      &report, flags.GetString("metrics-json", ""),
      flags.GetString("metrics-csv", ""));
  if (!report_st.ok()) return Fail(report_st);
  return ExitCodeForStopReason(gr.stop_reason);
}

int Main(int argc, char** argv) {
#if OPIM_FAULT_INJECT_ENABLED
  // Test builds only: OPIM_FAULT_INJECT="site=hit,..." arms deterministic
  // fault sites (support/fault_inject.h) for the whole invocation.
  fault::ArmFromEnv();
#endif
  if (argc < 2) {
    std::fprintf(
        stderr,
        "usage: opim_cli <gen|convert|stats|run|evaluate|online> [flags]\n"
        "see the header comment of tools/opim_cli.cc for details\n");
    return 2;
  }
  const std::string cmd = argv[1];
  Flags flags(argc - 1, argv + 1);
  const std::string log_level = flags.GetString("log-level", "");
  if (!log_level.empty()) {
    LogLevel level;
    if (!ParseLogLevel(log_level, &level)) {
      return Fail(Status::InvalidArgument("bad --log-level: " + log_level));
    }
    SetLogLevel(level);
  }
  if (cmd == "gen") return CmdGen(flags);
  if (cmd == "convert") return CmdConvert(flags);
  if (cmd == "stats") return CmdStats(flags);
  if (cmd == "run") return CmdRun(flags);
  if (cmd == "evaluate") return CmdEvaluate(flags);
  if (cmd == "online") return CmdOnline(flags);
  std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  return 2;
}

}  // namespace
}  // namespace opim::cli

int main(int argc, char** argv) { return opim::cli::Main(argc, argv); }
