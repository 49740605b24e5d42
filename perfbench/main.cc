// opim_perfbench: the native half of the end-to-end benchmark
// (perfbench/run.py drives it).
//
//   opim_perfbench gen --dataset=<name> --scale=<exp> --seed=<n> --out=<file>
//       Builds MakeDataset(name, scale, seed) and writes it as `.opimg`.
//
//   opim_perfbench run --workload=<name> --graph=<file> --mode=batch|online
//       --model=ic|lt --k=<k> --eps=<eps> --threads=<t> --seed=<n>
//       --seconds=<s> --spread-samples=<n> [--trace=0|1 --trace-out=<file>]
//       --out=<file>
//       Runs one workload (see workloads.h) and writes its JSON report.
//
// Exit codes: 0 = every check passed, 1 = some answer failed a check,
// 2 = the run could not start.
#include <cstdio>
#include <string>

#include "graph/graph_mmap.h"
#include "harness/datasets.h"
#include "harness/flags.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: opim_perfbench gen|run [flags] (see main.cc)\n");
  return 2;
}

int Gen(const opim::Flags& flags) {
  const std::string out = flags.GetString("out", "");
  if (out.empty()) return Usage();
  auto graph = opim::MakeDataset(
      flags.GetString("dataset", ""),
      static_cast<uint32_t>(flags.GetUint("scale", 0)),
      flags.GetUint("seed", 1));
  if (!graph.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 graph.status().ToString().c_str());
    return 2;
  }
  const opim::Status st = opim::SaveOpimg(graph.ValueOrDie(), out);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    return 2;
  }
  return 0;
}

int Run(const opim::Flags& flags) {
  perfbench::RunConfig config;
  config.workload = flags.GetString("workload", "");
  config.graph_path = flags.GetString("graph", "");
  const std::string mode = flags.GetString("mode", "");
  const std::string model = flags.GetString("model", "");
  const std::string out = flags.GetString("out", "");
  if (config.workload.empty() || config.graph_path.empty() || out.empty() ||
      (mode != "batch" && mode != "online") ||
      (model != "ic" && model != "lt")) {
    return Usage();
  }
  config.online = mode == "online";
  config.model = model == "ic" ? opim::DiffusionModel::kIndependentCascade
                               : opim::DiffusionModel::kLinearThreshold;
  config.k = static_cast<uint32_t>(flags.GetUint("k", config.k));
  config.eps = flags.GetDouble("eps", config.eps);
  config.threads =
      static_cast<unsigned>(flags.GetUint("threads", config.threads));
  config.seed = flags.GetUint("seed", config.seed);
  config.seconds = flags.GetDouble("seconds", config.seconds);
  config.spread_samples =
      flags.GetUint("spread-samples", config.spread_samples);
  config.trace = flags.GetUint("trace", 0) != 0;
  config.trace_path = flags.GetString("trace-out", "");
  if (config.trace && config.trace_path.empty()) return Usage();

  std::string report;
  const int failed = perfbench::RunWorkload(config, &report);
  if (failed < 0) return 2;
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr ||
      std::fwrite(report.data(), 1, report.size(), f) != report.size() ||
      std::fclose(f) != 0) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out.c_str());
    return 2;
  }
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  const opim::Flags flags(argc - 1, argv + 1);
  if (cmd == "gen") return Gen(flags);
  if (cmd == "run") return Run(flags);
  return Usage();
}
