// The benchmark's request loop: load the generated graph, warm up, serve
// requests back to back from one client thread (closed loop, no think
// time), check every answer, and describe the run as one JSON document.
//
// A request is one RunOpimC call (batch workloads) or one online session
// (OnlineMaximizer constructor, then Advance + QueryAll rounds until the
// improved-bound α reaches 1 - 1/e - ε). Request i runs with RNG seed
// `seed + i`. The library runs at its defaults: pipeline on, incremental
// selection on, view arena off, BoundKind::kImproved, δ = 1/n.
#pragma once

#include <cstdint>
#include <string>

#include "diffusion/cascade.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::string graph_path;
  bool online = false;
  opim::DiffusionModel model = opim::DiffusionModel::kIndependentCascade;
  uint32_t k = 50;
  double eps = 0.1;
  unsigned threads = 1;
  uint64_t seed = 1;
  /// Length of the timed window; it is extended until at least 50
  /// requests have completed, so that p80 has 10 requests beyond it.
  double seconds = 10.0;
  /// Monte-Carlo cascades for the once-per-run spread check.
  uint64_t spread_samples = 10000;
  /// Traced run: alternate traced and untraced requests, snapshot the
  /// metrics registry around traced ones, probe the SamplingView build,
  /// and write the spans to `trace_path`.
  bool trace = false;
  std::string trace_path;
};

/// Runs one workload. Writes the run's JSON description to `*report` and
/// returns the number of failed checks (0 = every answer passed), or -1
/// when the run could not start (unloadable graph, unreportable build).
int RunWorkload(const RunConfig& config, std::string* report);

}  // namespace perfbench
