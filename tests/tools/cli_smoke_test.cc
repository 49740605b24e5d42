// End-to-end smoke tests of the opim_cli binary: generate, inspect,
// convert, run, evaluate — the full user workflow, driven through the
// actual executable. Located via the OPIM_CLI_PATH compile definition.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <string>

#include "graph/graph.h"
#include "graph/graph_mmap.h"

namespace opim {
namespace {

/// Runs a command, returning (exit code, captured stdout).
std::pair<int, std::string> RunCommand(const std::string& cmd) {
  std::array<char, 4096> buffer;
  std::string output;
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return {-1, ""};
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    output += buffer.data();
  }
  int rc = pclose(pipe);
  return {rc, output};
}

/// Decodes the child's exit code from the pclose() wait status.
int ExitCode(int wait_status) {
  return WIFEXITED(wait_status) ? WEXITSTATUS(wait_status) : -1;
}

std::string Cli() { return OPIM_CLI_PATH; }

std::string TmpFile(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(CliSmokeTest, GenStatsRoundTrip) {
  std::string bin = TmpFile("cli_smoke.opimg");
  auto [rc1, out1] = RunCommand(Cli() + " gen --dataset=pokec-sim --scale=9 --out=" +
                         bin);
  ASSERT_EQ(rc1, 0) << out1;
  EXPECT_NE(out1.find("n=512"), std::string::npos) << out1;

  auto [rc2, out2] = RunCommand(Cli() + " stats --graph=" + bin);
  ASSERT_EQ(rc2, 0) << out2;
  EXPECT_NE(out2.find("nodes          512"), std::string::npos) << out2;
  EXPECT_NE(out2.find("LT-feasible"), std::string::npos) << out2;
  std::remove(bin.c_str());
}

TEST(CliSmokeTest, RunOpimCAndEvaluate) {
  std::string bin = TmpFile("cli_run.opimg");
  ASSERT_EQ(RunCommand(Cli() + " gen --dataset=livejournal-sim --scale=9 --out=" +
                bin).first, 0);

  auto [rc, out] = RunCommand(Cli() + " run --graph=" + bin +
                       " --algo=opim-c+ --k=3 --eps=0.3 --mc=500");
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("alpha="), std::string::npos) << out;
  EXPECT_NE(out.find("expected_spread="), std::string::npos) << out;

  auto [rc2, out2] =
      RunCommand(Cli() + " evaluate --graph=" + bin + " --mc=500 0 1 2");
  ASSERT_EQ(rc2, 0) << out2;
  EXPECT_NE(out2.find("ci95"), std::string::npos) << out2;
  std::remove(bin.c_str());
}

TEST(CliSmokeTest, ConvertWccTextToBinary) {
  std::string txt = TmpFile("cli_conv.txt");
  {
    FILE* f = fopen(txt.c_str(), "w");
    ASSERT_NE(f, nullptr);
    // Two components: {0,1,2} and {3,4}.
    fputs("0 1\n1 2\n3 4\n", f);
    fclose(f);
  }
  std::string bin = TmpFile("cli_conv.opimg");
  auto [rc, out] = RunCommand(Cli() + " convert --in=" + txt + " --out=" + bin +
                       " --wcc=true");
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("kept 3 of 5"), std::string::npos) << out;
  auto [rc2, out2] = RunCommand(Cli() + " stats --graph=" + bin);
  ASSERT_EQ(rc2, 0);
  EXPECT_NE(out2.find("nodes          3"), std::string::npos) << out2;
  std::remove(txt.c_str());
  std::remove(bin.c_str());
}

std::string ReadFile(const std::string& path) {
  std::string content;
  std::array<char, 4096> buffer;
  FILE* f = fopen(path.c_str(), "r");
  if (f == nullptr) return content;
  size_t got = 0;
  while ((got = fread(buffer.data(), 1, buffer.size(), f)) > 0) {
    content.append(buffer.data(), got);
  }
  fclose(f);
  return content;
}

TEST(CliSmokeTest, RunWritesMetricsJsonReport) {
  std::string bin = TmpFile("cli_metrics.opimg");
  ASSERT_EQ(RunCommand(Cli() + " gen --dataset=pokec-sim --scale=9 --out=" +
                bin).first, 0);

  std::string json = TmpFile("cli_metrics.json");
  std::string csv = TmpFile("cli_metrics.csv");
  auto [rc, out] = RunCommand(
      Cli() + " run --graph=" + bin +
      " --algo=opim-c+ --k=3 --eps=0.3 --threads=2 --metrics-json=" + json +
      " --metrics-csv=" + csv);
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("metrics_json=" + json), std::string::npos) << out;

  const std::string report = ReadFile(json);
  ASSERT_FALSE(report.empty());
  EXPECT_EQ(report.front(), '{');
  EXPECT_EQ(report.back(), '}');
  // Schema + key run results.
  EXPECT_NE(report.find("\"opim.run_report.v1\""), std::string::npos);
  EXPECT_NE(report.find("\"alpha\""), std::string::npos);
  EXPECT_NE(report.find("\"threads_resolved\":2"), std::string::npos);
#if defined(OPIM_TELEMETRY_ENABLED) && OPIM_TELEMETRY_ENABLED
  // Engine counters from the instrumented hot paths (absent, by design,
  // when telemetry is compiled out).
  EXPECT_NE(report.find("\"opim.rrset.sets_generated\""), std::string::npos);
  EXPECT_NE(report.find("\"opim.rrset.edges_examined\""), std::string::npos);
  EXPECT_NE(report.find("\"opim.select.cover_updates\""), std::string::npos);
  EXPECT_NE(report.find("\"opim.pool.tasks_run\""), std::string::npos);
  EXPECT_NE(report.find("\"opim.opimc.phase.generate_us\""), std::string::npos);
#endif
  // Per-iteration rows are part of the report proper, not the metrics
  // snapshot, so they survive -DOPIM_TELEMETRY=OFF.
  EXPECT_NE(report.find("\"generate_seconds\""), std::string::npos);

  const std::string rows = ReadFile(csv);
  EXPECT_NE(rows.find("iteration,theta1,sigma_lower,sigma_upper,alpha"),
            std::string::npos) << rows;

  std::remove(bin.c_str());
  std::remove(json.c_str());
  std::remove(csv.c_str());
}

TEST(CliSmokeTest, OnlineWritesMetricsJsonReport) {
  std::string bin = TmpFile("cli_online_metrics.opimg");
  ASSERT_EQ(RunCommand(Cli() + " gen --dataset=pokec-sim --scale=9 --out=" +
                bin).first, 0);

  std::string json = TmpFile("cli_online_metrics.json");
  auto [rc, out] = RunCommand(Cli() + " online --graph=" + bin +
                       " --k=3 --rounds=3 --batch=256 --threads=2"
                       " --metrics-json=" + json);
  ASSERT_EQ(rc, 0) << out;
  const std::string report = ReadFile(json);
  EXPECT_NE(report.find("\"opim.run_report.v1\""), std::string::npos);
  EXPECT_NE(report.find("\"advance_seconds\""), std::string::npos);
  // The RR stream is a function of (seed, resolved threads).
  EXPECT_NE(report.find("\"threads_requested\":2"), std::string::npos);
  EXPECT_NE(report.find("\"threads_resolved\":2"), std::string::npos);
#if defined(OPIM_TELEMETRY_ENABLED) && OPIM_TELEMETRY_ENABLED
  EXPECT_NE(report.find("\"opim.online.queries\""), std::string::npos);
#endif
  std::remove(bin.c_str());
  std::remove(json.c_str());
}

TEST(CliSmokeTest, TelemetryFlagsDoNotPerturbResults) {
  // Same seed, with and without telemetry outputs / verbose logging:
  // the algorithmic stdout lines (seeds, alpha, ...) must be identical.
  std::string bin = TmpFile("cli_determinism.opimg");
  ASSERT_EQ(RunCommand(Cli() + " gen --dataset=pokec-sim --scale=9 --out=" +
                bin).first, 0);

  const std::string base = Cli() + " run --graph=" + bin +
                           " --algo=opim-c+ --k=3 --eps=0.3 --seed=7";
  auto [rc1, plain] = RunCommand(base);
  ASSERT_EQ(rc1, 0) << plain;

  std::string json = TmpFile("cli_determinism.json");
  auto [rc2, instrumented] =
      RunCommand(base + " --log-level=debug --metrics-json=" + json);
  ASSERT_EQ(rc2, 0) << instrumented;

  // Compare the algorithmic lines; the instrumented run adds log lines
  // (stderr merged into stdout) and a metrics_json= line on top.
  for (const char* key : {"seeds:", "alpha=", "rr_sets=", "iterations="}) {
    size_t pos = plain.find(key);
    ASSERT_NE(pos, std::string::npos) << key << "\n" << plain;
    std::string line = plain.substr(pos, plain.find('\n', pos) - pos);
    EXPECT_NE(instrumented.find(line), std::string::npos)
        << "line diverged: " << line << "\n" << instrumented;
  }
  std::remove(bin.c_str());
  std::remove(json.c_str());
}

std::string ReportLint() { return OPIM_REPORT_LINT_PATH; }

TEST(CliSmokeTest, RunWritesTraceJsonThatLintsClean) {
  std::string bin = TmpFile("cli_trace.opimg");
  ASSERT_EQ(RunCommand(Cli() + " gen --dataset=pokec-sim --scale=9 --out=" +
                bin).first, 0);

  std::string trace = TmpFile("cli_trace.json");
  std::string json = TmpFile("cli_trace_metrics.json");
  auto [rc, out] = RunCommand(
      Cli() + " run --graph=" + bin +
      " --algo=opim-c+ --k=3 --eps=0.3 --threads=2 --trace-json=" + trace +
      " --metrics-json=" + json);
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("trace_json=" + trace), std::string::npos) << out;

  const std::string doc = ReadFile(trace);
  ASSERT_FALSE(doc.empty());
  EXPECT_NE(doc.find("\"opim.trace.v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
#if defined(OPIM_TELEMETRY_ENABLED) && OPIM_TELEMETRY_ENABLED
  // Spans from the instrumented modules; telemetry-OFF builds still write
  // a valid (empty) trace document.
  for (const char* cat : {"\"opimc\"", "\"rrset\"", "\"select\"",
                          "\"bounds\"", "\"pool\""}) {
    EXPECT_NE(doc.find(cat), std::string::npos) << "missing category " << cat;
  }
#endif

  // The shipped validator accepts both artifacts.
  auto [lint_rc, lint_out] = RunCommand(ReportLint() + " --trace-json=" +
                                        trace + " --metrics-json=" + json);
  EXPECT_EQ(ExitCode(lint_rc), 0) << lint_out;
  EXPECT_NE(lint_out.find("report_lint: ok"), std::string::npos) << lint_out;

  std::remove(bin.c_str());
  std::remove(trace.c_str());
  std::remove(json.c_str());
}

TEST(CliSmokeTest, OnlineWritesTraceJson) {
  std::string bin = TmpFile("cli_online_trace.opimg");
  ASSERT_EQ(RunCommand(Cli() + " gen --dataset=pokec-sim --scale=9 --out=" +
                bin).first, 0);

  std::string trace = TmpFile("cli_online_trace.json");
  auto [rc, out] = RunCommand(Cli() + " online --graph=" + bin +
                       " --k=3 --rounds=3 --batch=256 --trace-json=" + trace);
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("trace_json=" + trace), std::string::npos) << out;
  auto [lint_rc, lint_out] = RunCommand(ReportLint() + " --trace-json=" +
                                        trace);
  EXPECT_EQ(ExitCode(lint_rc), 0) << lint_out;
  std::remove(bin.c_str());
  std::remove(trace.c_str());
}

TEST(CliSmokeTest, ProgressFlagEmitsHeartbeatLine) {
  std::string bin = TmpFile("cli_progress.opimg");
  ASSERT_EQ(RunCommand(Cli() + " gen --dataset=pokec-sim --scale=9 --out=" +
                bin).first, 0);

  // Even a short run sees at least the final heartbeat line (stderr is
  // merged into the captured output).
  auto [rc, out] = RunCommand(Cli() + " run --graph=" + bin +
                       " --algo=opim-c+ --k=3 --eps=0.3 --progress");
  ASSERT_EQ(rc, 0) << out;
  EXPECT_NE(out.find("opim: progress t="), std::string::npos) << out;
  EXPECT_NE(out.find("alpha="), std::string::npos) << out;
  std::remove(bin.c_str());
}

TEST(CliSmokeTest, ReportLintRejectsBadArtifacts) {
  // No inputs at all is a usage error.
  auto [rc_usage, out_usage] = RunCommand(ReportLint());
  EXPECT_EQ(ExitCode(rc_usage), 2) << out_usage;

  // A syntactically valid JSON file that violates the schema fails with 1.
  std::string bad = TmpFile("cli_bad_trace.json");
  {
    FILE* f = fopen(bad.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("{\"schema\": \"opim.trace.v1\", \"traceEvents\": ["
          "{\"name\": \"a\", \"ph\": \"X\", \"tid\": 1, "
          "\"ts\": 5, \"dur\": -1}]}",
          f);
    fclose(f);
  }
  auto [rc_bad, out_bad] = RunCommand(ReportLint() + " --trace-json=" + bad);
  EXPECT_EQ(ExitCode(rc_bad), 1) << out_bad;
  EXPECT_NE(out_bad.find("negative duration"), std::string::npos) << out_bad;
  std::remove(bad.c_str());
}

TEST(CliGuardrailTest, ExpiredDeadlineDegradesGracefullyWithExitCode3) {
  std::string bin = TmpFile("cli_deadline.opimg");
  ASSERT_EQ(RunCommand(Cli() + " gen --dataset=pokec-sim --scale=9 --out=" +
                bin).first, 0);

  std::string json = TmpFile("cli_deadline.json");
  // --deadline-ms=0 arms an already-expired deadline: the run must degrade
  // at its first safe point yet still print a size-k seed set with a
  // finite certificate and write the full report.
  auto [rc, out] = RunCommand(Cli() + " run --graph=" + bin +
                       " --algo=opim-c+ --k=3 --eps=0.3 --mc=0" +
                       " --deadline-ms=0 --metrics-json=" + json);
  EXPECT_EQ(ExitCode(rc), 3) << out;
  EXPECT_NE(out.find("stop_reason=deadline"), std::string::npos) << out;
  EXPECT_NE(out.find("alpha="), std::string::npos) << out;
  EXPECT_NE(out.find("seeds:"), std::string::npos) << out;

  const std::string report = ReadFile(json);
  EXPECT_NE(report.find("\"stop_reason\":\"deadline\""), std::string::npos)
      << report;
  EXPECT_NE(report.find("\"deadline_slack_ms\""), std::string::npos);
  EXPECT_NE(report.find("\"peak_rr_bytes\""), std::string::npos);
  EXPECT_NE(report.find("\"cancel_latency_ms\""), std::string::npos);
  std::remove(bin.c_str());
  std::remove(json.c_str());
}

TEST(CliGuardrailTest, TinyMemoryBudgetDegradesWithExitCode4) {
  std::string bin = TmpFile("cli_membudget.opimg");
  ASSERT_EQ(RunCommand(Cli() + " gen --dataset=pokec-sim --scale=9 --out=" +
                bin).first, 0);

  std::string json = TmpFile("cli_membudget.json");
  // 0.01 MiB is below even the fixed per-run arrays, so the budget trips
  // deterministically at the first footprint poll.
  auto [rc, out] = RunCommand(Cli() + " run --graph=" + bin +
                       " --algo=opim-c+ --k=3 --eps=0.3 --mc=0" +
                       " --max-rr-mb=0.01 --metrics-json=" + json);
  EXPECT_EQ(ExitCode(rc), 4) << out;
  EXPECT_NE(out.find("stop_reason=memory_budget"), std::string::npos) << out;
  EXPECT_NE(out.find("seeds:"), std::string::npos) << out;
  const std::string report = ReadFile(json);
  EXPECT_NE(report.find("\"stop_reason\":\"memory_budget\""),
            std::string::npos) << report;
  EXPECT_NE(report.find("\"rr_budget_bytes\""), std::string::npos);
  std::remove(bin.c_str());
  std::remove(json.c_str());
}

TEST(CliGuardrailTest, ConvergedRunReportsStopReasonAndExitsZero) {
  std::string bin = TmpFile("cli_converged.opimg");
  ASSERT_EQ(RunCommand(Cli() + " gen --dataset=pokec-sim --scale=9 --out=" +
                bin).first, 0);

  std::string csv = TmpFile("cli_converged.csv");
  auto [rc, out] = RunCommand(Cli() + " run --graph=" + bin +
                       " --algo=opim-c+ --k=3 --eps=0.3 --mc=0" +
                       " --deadline-ms=60000 --metrics-csv=" + csv);
  EXPECT_EQ(ExitCode(rc), 0) << out;
  EXPECT_NE(out.find("stop_reason=converged"), std::string::npos) << out;
  // The per-iteration footprint column rides at the end of the CSV rows.
  const std::string rows = ReadFile(csv);
  EXPECT_NE(rows.find("iteration,theta1,sigma_lower,sigma_upper,alpha"),
            std::string::npos) << rows;
  EXPECT_NE(rows.find(",rr_bytes"), std::string::npos) << rows;
  std::remove(bin.c_str());
  std::remove(csv.c_str());
}

TEST(CliGuardrailTest, OnlineSessionHonorsDeadline) {
  std::string bin = TmpFile("cli_online_deadline.opimg");
  ASSERT_EQ(RunCommand(Cli() + " gen --dataset=pokec-sim --scale=9 --out=" +
                bin).first, 0);

  auto [rc, out] = RunCommand(Cli() + " online --graph=" + bin +
                       " --k=3 --rounds=50 --batch=512 --target=0.999" +
                       " --deadline-ms=0");
  EXPECT_EQ(ExitCode(rc), 3) << out;
  EXPECT_NE(out.find("stop_reason=deadline"), std::string::npos) << out;
  std::remove(bin.c_str());
}

/// Writes `text` to a temp file and returns its path.
std::string WriteTextGraph(const char* name, const char* text) {
  const std::string txt = TmpFile(name);
  FILE* f = fopen(txt.c_str(), "w");
  if (f == nullptr) return txt;
  fputs(text, f);
  fclose(f);
  return txt;
}

/// A three-edge text graph whose node 2 has in-weights 0.9 + 0.9: LT
/// defines no spread on it. The loader compacts ids in first-appearance
/// order (0, 2, 1, 3), so the graph calls that node 1; the CLI names it
/// by its id in the file.
std::string WriteLtInfeasibleGraph(const char* name) {
  return WriteTextGraph(name, "0 2 0.9\n1 2 0.9\n2 3 0.5\n");
}

TEST(CliSmokeTest, TextGraphKeepsFileNodeIds) {
  // The loader numbers these nodes 0..3 in order of first appearance;
  // every id the CLI prints or takes is the file's: 10 is the best seed.
  const std::string txt = WriteTextGraph(
      "cli_file_ids.txt", "10 20 0.9\n30 20 0.9\n20 40 0.5\n");
  const std::string json = TmpFile("cli_file_ids.json");
  auto [rc, out] = RunCommand(Cli() + " run --graph=" + txt +
                              " --algo=opim-c+ --k=1 --eps=0.5 --mc=0"
                              " --query-ks=1 --metrics-json=" + json);
  ASSERT_EQ(ExitCode(rc), 0) << out;
  EXPECT_NE(out.find("\nseeds: 10\n"), std::string::npos) << out;
  const size_t query = out.find("query k=1 ");
  ASSERT_NE(query, std::string::npos) << out;
  const std::string line = out.substr(query, out.find('\n', query) - query);
  EXPECT_TRUE(line.ends_with(" seeds: 10")) << line;
  EXPECT_NE(ReadFile(json).find("\"seeds\":[10]"), std::string::npos);

  const std::string evaluate =
      Cli() + " evaluate --graph=" + txt + " --mc=10 ";
  auto [rc_ok, out_ok] = RunCommand(evaluate + "10");
  EXPECT_EQ(ExitCode(rc_ok), 0) << out_ok;
  for (const char* bad : {"1", "+1"}) {
    auto [rc_bad, out_bad] = RunCommand(evaluate + bad);
    EXPECT_EQ(ExitCode(rc_bad), 1) << bad << "\n" << out_bad;
    EXPECT_NE(out_bad.find(std::string("bad seed id: ") + bad),
              std::string::npos)
        << out_bad;
  }
  std::remove(txt.c_str());
  std::remove(json.c_str());
}

TEST(CliSmokeTest, LtCommandsRefuseInWeightsPastOne) {
  const std::string txt = WriteLtInfeasibleGraph("cli_lt_bad.txt");
  const std::string graph = " --graph=" + txt + " --model=LT";
  const std::string commands[] = {
      "run" + graph + " --algo=opim-c+ --k=1 --eps=0.5",
      "run" + graph + " --algo=imm --k=1 --eps=0.5",
      "run" + graph + " --algo=mc-greedy --k=1 --mc=10",
      "online" + graph + " --k=1 --rounds=1 --batch=64",
      "evaluate" + graph + " --mc=10 0",
  };
  for (const std::string& command : commands) {
    auto [rc, out] = RunCommand(Cli() + " " + command);
    EXPECT_EQ(ExitCode(rc), 1) << command << "\n" << out;
    EXPECT_NE(out.find("node 2 sums to 1.8"), std::string::npos)
        << command << "\n" << out;
  }
  // The same graph is fine under IC.
  auto [rc, out] = RunCommand(Cli() + " evaluate --graph=" + txt +
                              " --mc=10 0");
  EXPECT_EQ(ExitCode(rc), 0) << out;
  std::remove(txt.c_str());
}

/// Runs `args` (a run or online command with its flags) on a four-node
/// text graph and expects a clean refusal: exit 1 and an error line that
/// names the flag and its value, `flag`.
void ExpectFlagRefused(const std::string& args, const std::string& flag) {
  // One file per test: ctest runs the cases in parallel processes.
  const std::string name =
      std::string(
          ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
      ".txt";
  const std::string txt =
      WriteTextGraph(name.c_str(), "10 20 0.9\n30 20 0.9\n20 40 0.5\n");
  auto [rc, out] = RunCommand(Cli() + " " + args + " --graph=" + txt);
  EXPECT_EQ(ExitCode(rc), 1) << args << "\n" << out;
  EXPECT_NE(out.find("error: "), std::string::npos) << args << "\n" << out;
  EXPECT_NE(out.find(flag + ": "), std::string::npos) << args << "\n" << out;
  std::remove(txt.c_str());
}

TEST(CliSmokeTest, RunRefusesKAboveNodeCount) {
  ExpectFlagRefused("run --k=9 --mc=0", "--k=9");
}

TEST(CliSmokeTest, RunRefusesZeroK) {
  ExpectFlagRefused("run --k=0 --mc=0", "--k=0");
}

TEST(CliSmokeTest, RunRefusesMalformedK) {
  ExpectFlagRefused("run --k=abc --mc=0", "--k=abc");
}

TEST(CliSmokeTest, RunRefusesEpsAboveOne) {
  ExpectFlagRefused("run --k=1 --eps=1.5 --mc=0", "--eps=1.5");
}

TEST(CliSmokeTest, RunRefusesMalformedEps) {
  ExpectFlagRefused("run --k=1 --eps=abc --mc=0", "--eps=abc");
}

TEST(CliSmokeTest, RunRefusesDeltaAboveOne) {
  ExpectFlagRefused("run --k=1 --delta=2 --mc=0", "--delta=2");
}

TEST(CliSmokeTest, RunRefusesMalformedThreads) {
  ExpectFlagRefused("run --k=1 --threads=abc --mc=0", "--threads=abc");
}

TEST(CliSmokeTest, RunRefusesNegativeThreads) {
  ExpectFlagRefused("run --k=1 --threads=-1 --mc=0", "--threads=-1");
}

TEST(CliSmokeTest, RunRefusesThreadsWithTrailingJunk) {
  ExpectFlagRefused("run --k=1 --threads=4x --mc=0", "--threads=4x");
}

TEST(CliSmokeTest, RunRefusesThreadsPast32Bits) {
  // Cast to 32 bits, 2^32 would read 0: one thread per hardware thread.
  ExpectFlagRefused("run --k=1 --threads=4294967296 --mc=0",
                    "--threads=4294967296");
}

TEST(CliSmokeTest, RunRefusesMalformedSeed) {
  ExpectFlagRefused("run --k=1 --seed=abc --mc=0", "--seed=abc");
}

TEST(CliSmokeTest, ImmRefusesKAboveNodeCount) {
  ExpectFlagRefused("run --algo=imm --k=9 --mc=0", "--k=9");
}

/// Runs the RIS baseline `algo` on the one-node text graph `5 5 0.5`,
/// with valid --k, --eps and --delta, and expects a clean refusal: exit
/// 1 and an error line that names the algorithm and the node count.
void ExpectOneNodeGraphRefused(const std::string& algo) {
  const std::string name =
      std::string(
          ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
      ".txt";
  const std::string txt = WriteTextGraph(name.c_str(), "5 5 0.5\n");
  auto [rc, out] = RunCommand(Cli() + " run --algo=" + algo +
                              " --k=1 --eps=0.5 --delta=0.5 --mc=0 --graph=" +
                              txt);
  EXPECT_EQ(ExitCode(rc), 1) << out;
  EXPECT_NE(out.find("error: "), std::string::npos) << out;
  EXPECT_NE(out.find("--algo=" + algo +
                     " needs a graph of at least 2 nodes; this one has 1"),
            std::string::npos)
      << out;
  std::remove(txt.c_str());
}

TEST(CliSmokeTest, ImmRefusesOneNodeGraph) { ExpectOneNodeGraphRefused("imm"); }

TEST(CliSmokeTest, TimRefusesOneNodeGraph) { ExpectOneNodeGraphRefused("tim"); }

TEST(CliSmokeTest, SsaFixRefusesOneNodeGraph) {
  ExpectOneNodeGraphRefused("ssa-fix");
}

TEST(CliSmokeTest, DssaFixRefusesOneNodeGraph) {
  ExpectOneNodeGraphRefused("dssa-fix");
}

TEST(CliSmokeTest, TimRefusesEdgelessGraph) {
  // No text edge list has nodes without edges; an .opimg file can.
  const std::string bin = TmpFile("edgeless.opimg");
  ASSERT_TRUE(SaveOpimg(GraphBuilder(2).Build(), bin).ok());
  auto [rc, out] = RunCommand(Cli() + " run --algo=tim --graph=" + bin +
                              " --k=1 --eps=0.5 --delta=0.5 --mc=0");
  EXPECT_EQ(ExitCode(rc), 1) << out;
  EXPECT_NE(out.find("error: "), std::string::npos) << out;
  EXPECT_NE(out.find("--algo=tim needs a graph with at least one edge"),
            std::string::npos)
      << out;
  std::remove(bin.c_str());
}

TEST(CliSmokeTest, OnlineRefusesKAboveNodeCount) {
  ExpectFlagRefused("online --k=9 --rounds=1", "--k=9");
}

TEST(CliSmokeTest, OnlineRefusesZeroDelta) {
  ExpectFlagRefused("online --k=1 --delta=0 --rounds=1", "--delta=0");
}

TEST(CliSmokeTest, OnlineRefusesOneSetBatches) {
  // One set per round leaves R2 empty after round 1.
  ExpectFlagRefused("online --k=1 --batch=1 --rounds=1", "--batch=1");
}

TEST(CliSmokeTest, OnlineRefusesEmptyBatches) {
  ExpectFlagRefused("online --k=1 --batch=0 --rounds=1", "--batch=0");
}

TEST(CliSmokeTest, OnlineRefusesZeroRounds) {
  ExpectFlagRefused("online --k=1 --rounds=0", "--rounds=0");
}

TEST(CliSmokeTest, OnlineRefusesMalformedThreads) {
  ExpectFlagRefused("online --k=1 --rounds=1 --threads=4x", "--threads=4x");
}

TEST(CliSmokeTest, OnlineRefusesThreadsPast32Bits) {
  ExpectFlagRefused("online --k=1 --rounds=1 --threads=4294967296",
                    "--threads=4294967296");
}

TEST(CliSmokeTest, OnlineRefusesMalformedSeed) {
  ExpectFlagRefused("online --k=1 --rounds=1 --seed=abc", "--seed=abc");
}

TEST(CliSmokeTest, BadLogLevelIsCleanError) {
  auto [rc, out] = RunCommand(Cli() + " run --log-level=shout");
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
}

TEST(CliSmokeTest, UnknownCommandFails) {
  auto [rc, out] = RunCommand(Cli() + " frobnicate");
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("unknown command"), std::string::npos);
}

TEST(CliSmokeTest, MissingGraphIsCleanError) {
  auto [rc, out] = RunCommand(Cli() + " stats --graph=/nonexistent/x.bin");
  EXPECT_NE(rc, 0);
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
}

}  // namespace
}  // namespace opim
