#include "graph/graph_io.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace opim {

namespace {

struct RawEdge {
  uint64_t u, v;
  double p;  // < 0 means unset
};

Status LineError(uint64_t lineno, const std::string& what,
                 std::string_view line) {
  return Status::InvalidArgument(what + " at line " + std::to_string(lineno) +
                                 ": '" + std::string(line) + "'");
}

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

/// Splits `line` into whitespace-separated tokens, at most `max_tokens + 1`
/// (the extra slot lets the caller detect trailing junk without scanning
/// the rest of a pathological line).
void Tokenize(std::string_view line, size_t max_tokens,
              std::vector<std::string_view>* out) {
  out->clear();
  size_t i = 0;
  while (i < line.size() && out->size() <= max_tokens) {
    while (i < line.size() && IsSpace(line[i])) ++i;
    if (i >= line.size()) break;
    size_t start = i;
    while (i < line.size() && !IsSpace(line[i])) ++i;
    out->push_back(line.substr(start, i - start));
  }
}

/// Parses the edge lines out of `text`. Returns raw (uncompacted) edges.
///
/// Strict by design (see tests/graph/loader_robustness_test.cc): every
/// non-comment line must be exactly "u v" or "u v p" — truncated lines,
/// negative or non-numeric ids, id overflow, NaN/inf/out-of-range
/// probabilities, and trailing junk are all InvalidArgument with the line
/// number, never a crash or a silently mis-parsed edge. '\r' is treated as
/// whitespace so CRLF files load unchanged, and '#' starts a comment
/// anywhere on a line.
Status ParseLines(const std::string& text, std::vector<RawEdge>* edges) {
  std::istringstream in(text);
  std::string line;
  std::vector<std::string_view> tokens;
  uint64_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::string_view body(line);
    size_t hash = body.find('#');
    if (hash != std::string_view::npos) body = body.substr(0, hash);
    Tokenize(body, /*max_tokens=*/3, &tokens);
    if (tokens.empty()) continue;  // blank or comment-only line
    if (tokens.size() < 2) {
      return LineError(lineno, "truncated edge (need 'u v' or 'u v p')",
                       line);
    }
    if (tokens.size() > 3) {
      return LineError(lineno, "trailing junk after edge", line);
    }
    RawEdge e{0, 0, -1.0};
    if (!ParseDecimalU64(tokens[0], &e.u) ||
        !ParseDecimalU64(tokens[1], &e.v)) {
      return LineError(lineno, "malformed node id", line);
    }
    if (tokens.size() == 3 && !ParseProbability(tokens[2], &e.p)) {
      return LineError(lineno, "malformed probability (need finite [0,1])",
                       line);
    }
    edges->push_back(e);
  }
  return Status::OK();
}

Result<Graph> BuildFromRaw(const std::vector<RawEdge>& raw,
                           const EdgeListOptions& options,
                           std::vector<uint64_t>* file_ids) {
  // Compact sparse ids to [0, n) in first-appearance order; `ids` maps
  // them back.
  std::unordered_map<uint64_t, NodeId> remap;
  remap.reserve(raw.size() * 2);
  std::vector<uint64_t> ids;
  auto intern = [&](uint64_t id) {
    auto [it, inserted] = remap.emplace(id, static_cast<NodeId>(remap.size()));
    if (inserted) ids.push_back(id);
    return it->second;
  };
  std::vector<std::pair<NodeId, NodeId>> compact;
  compact.reserve(raw.size());
  for (const RawEdge& e : raw) {
    // Sequence the interning calls: argument evaluation order is
    // unspecified, and first-appearance numbering must see u before v.
    NodeId u = intern(e.u);
    NodeId v = intern(e.v);
    compact.emplace_back(u, v);
  }
  if (remap.size() > static_cast<uint64_t>(kInvalidNode)) {
    return Status::OutOfRange("more than 2^32-1 distinct node ids");
  }

  GraphBuilder builder(static_cast<uint32_t>(remap.size()));
  for (size_t i = 0; i < raw.size(); ++i) {
    auto [u, v] = compact[i];
    if (raw[i].p >= 0.0) {
      builder.AddEdge(u, v, raw[i].p);
      if (options.undirected) builder.AddEdge(v, u, raw[i].p);
    } else {
      builder.AddEdge(u, v);
      if (options.undirected) builder.AddEdge(v, u);
    }
  }
  Result<Graph> g =
      builder.Build(options.scheme, options.constant_p, options.seed);
  if (g.ok() && file_ids != nullptr) *file_ids = std::move(ids);
  return g;
}

}  // namespace

bool ParseDecimalU64(std::string_view tok, uint64_t* out) {
  if (tok.empty()) return false;
  for (char c : tok) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  std::string buf(tok);
  errno = 0;
  char* end = nullptr;
  uint64_t v = std::strtoull(buf.c_str(), &end, 10);
  if (errno == ERANGE || end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

bool ParseProbability(std::string_view tok, double* out) {
  if (tok.empty()) return false;
  std::string buf(tok);
  errno = 0;
  char* end = nullptr;
  double p = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  if (!std::isfinite(p) || p < 0.0 || p > 1.0) return false;
  *out = p;
  return true;
}

Result<Graph> ParseEdgeList(const std::string& text,
                            const EdgeListOptions& options,
                            std::vector<uint64_t>* file_ids) {
  std::vector<RawEdge> raw;
  Status st = ParseLines(text, &raw);
  if (!st.ok()) return st;
  return BuildFromRaw(raw, options, file_ids);
}

Result<Graph> LoadEdgeList(const std::string& path,
                           const EdgeListOptions& options,
                           std::vector<uint64_t>* file_ids) {
  std::ifstream f(path);
  if (!f.is_open()) return Status::IOError("cannot open: " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  if (f.bad()) return Status::IOError("read failed: " + path);
  return ParseEdgeList(buf.str(), options, file_ids);
}

Status SaveEdgeList(const Graph& g, const std::string& path) {
  std::ofstream f(path);
  if (!f.is_open()) return Status::IOError("cannot open for writing: " + path);
  f << "# opim edge list: u v p\n";
  f << "# nodes " << g.num_nodes() << " edges " << g.num_edges() << "\n";
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto nbrs = g.OutNeighbors(u);
    auto probs = g.OutProbs(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%u %u %.12g\n", u, nbrs[i], probs[i]);
      f << buf;
    }
  }
  if (!f.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace opim
