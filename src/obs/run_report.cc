#include "obs/run_report.h"

#include <cstdio>

#include "obs/json.h"

namespace opim {

namespace {

Status WriteFile(const std::string& path, const std::string& content) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open for writing: " + path);
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != content.size() || !close_ok) {
    return Status::IOError("short write: " + path);
  }
  return Status::OK();
}

}  // namespace

std::string RunReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").Value("opim.run_report.v1");

  w.Key("info").BeginObject();
  for (const auto& [key, value] : info_) w.Key(key).Value(value);
  w.EndObject();

  w.Key("results").BeginObject();
  for (const auto& [key, value] : results_) w.Key(key).Value(value);
  w.EndObject();

  w.Key("iterations").BeginArray();
  for (const Row& row : iterations_) {
    w.BeginObject();
    for (const auto& [column, value] : row.values) w.Key(column).Value(value);
    w.EndObject();
  }
  w.EndArray();

  // Optional section: present exactly when the run answered --query-ks
  // questions, so pre-existing reports (and their consumers) are
  // untouched.
  if (!queries_.empty()) {
    w.Key("queries").BeginArray();
    for (const QueryAnswer& q : queries_) {
      w.BeginObject();
      w.Key("k").Value(static_cast<double>(q.k));
      w.Key("alpha").Value(q.alpha);
      w.Key("sigma_lower").Value(q.sigma_lower);
      w.Key("sigma_upper").Value(q.sigma_upper);
      w.Key("seeds").BeginArray();
      for (uint64_t v : q.seeds) w.Value(v);
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
  }

  w.Key("metrics");
  metrics_.AppendTo(w);

  w.EndObject();
  return w.str();
}

std::string RunReport::CsvEscape(const std::string& field) {
  const bool needs_quoting =
      field.find_first_of(",\"\r\n") != std::string::npos;
  if (!needs_quoting) return field;
  std::string out;
  out.reserve(field.size() + 2);
  out += '"';
  for (char c : field) {
    if (c == '"') out += '"';  // RFC 4180: double embedded quotes
    out += c;
  }
  out += '"';
  return out;
}

std::string RunReport::IterationsToCsv() const {
  std::string out;
  if (iterations_.empty()) return out;
  const Row& first = iterations_.front();
  for (size_t i = 0; i < first.values.size(); ++i) {
    if (i > 0) out += ',';
    out += CsvEscape(first.values[i].first);
  }
  out += '\n';
  char buf[40];
  for (const Row& row : iterations_) {
    for (size_t i = 0; i < row.values.size(); ++i) {
      if (i > 0) out += ',';
      std::snprintf(buf, sizeof(buf), "%.17g", row.values[i].second);
      out += buf;
    }
    out += '\n';
  }
  return out;
}

Status RunReport::WriteJson(const std::string& path) const {
  return WriteFile(path, ToJson());
}

Status RunReport::WriteIterationsCsv(const std::string& path) const {
  return WriteFile(path, IterationsToCsv());
}

}  // namespace opim
