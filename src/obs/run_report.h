// RunReport: the machine-readable record of one algorithm run, emitted by
// `opim_cli run/online --metrics-json <path>` and consumable by the
// BENCH_*.json trajectory tooling.
//
// A report has four sections (docs/observability.md documents the schema
// and how each key maps to a paper quantity):
//
//   info        string key/values (algorithm, model, graph, seed, ...)
//   results     numeric outcomes (alpha, rr_sets, time_seconds, ...)
//   iterations  one row per doubling iteration / online round with the
//               per-phase wall times (generate/greedy/bounds)
//   queries     (optional; present iff the run used --query-ks) one row
//               per requested seed-set size k': the k'-prefix answer
//               (seeds, σ_l, σ_upper, α) read off the prefix-complete
//               selection trace of the final iteration
//   metrics     a MetricsSnapshot of the default registry
//
// Serialization: ToJson() (schema "opim.run_report.v1"), plus a CSV view
// of the iteration rows for spreadsheet-style regression tracking.

#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "support/status.h"

namespace opim {

/// Assembles and serializes one run's telemetry record.
class RunReport {
 public:
  /// One iteration/round row: ordered (column, value) pairs. Every row in
  /// a report should use the same columns in the same order.
  struct Row {
    std::vector<std::pair<std::string, double>> values;

    Row& Set(std::string column, double value) {
      values.emplace_back(std::move(column), value);
      return *this;
    }
  };

  /// One --query-ks answer row. Seeds are plain node ids (uint32_t keeps
  /// obs/ free of graph-layer headers).
  struct QueryAnswer {
    uint32_t k = 0;
    double alpha = 0.0;
    double sigma_lower = 0.0;
    double sigma_upper = 0.0;
    std::vector<uint64_t> seeds;
  };

  void AddInfo(std::string key, std::string value) {
    info_.emplace_back(std::move(key), std::move(value));
  }
  void AddResult(std::string key, double value) {
    results_.emplace_back(std::move(key), value);
  }
  /// Appends an empty iteration row; fill it with Row::Set.
  Row& AddIteration() { return iterations_.emplace_back(); }
  void AddQuery(QueryAnswer answer) { queries_.push_back(std::move(answer)); }
  void SetMetrics(MetricsSnapshot snapshot) {
    metrics_ = std::move(snapshot);
  }

  const std::vector<std::pair<std::string, std::string>>& info() const {
    return info_;
  }
  const std::vector<std::pair<std::string, double>>& results() const {
    return results_;
  }
  const std::vector<Row>& iterations() const { return iterations_; }
  const std::vector<QueryAnswer>& queries() const { return queries_; }
  const MetricsSnapshot& metrics() const { return metrics_; }

  /// The full report as a JSON document.
  std::string ToJson() const;

  /// The iteration rows as CSV (header from the first row's columns).
  /// Header fields are RFC 4180-quoted, so column names containing
  /// commas, quotes or newlines survive a strict CSV parser round-trip.
  std::string IterationsToCsv() const;

  /// RFC 4180 field escaping: returns `field` unchanged when it is safe
  /// to emit bare, otherwise wrapped in quotes with embedded quotes
  /// doubled. Exposed for tests and other CSV emitters.
  static std::string CsvEscape(const std::string& field);

  /// Writes ToJson() / IterationsToCsv() to `path`.
  Status WriteJson(const std::string& path) const;
  Status WriteIterationsCsv(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::pair<std::string, double>> results_;
  std::vector<Row> iterations_;
  std::vector<QueryAnswer> queries_;
  MetricsSnapshot metrics_;
};

}  // namespace opim
