// Text I/O for graphs: SNAP-style edge lists with optional per-edge
// probabilities. Lets users load the real Pokec/Orkut/LiveJournal/Twitter
// files from snap.stanford.edu when available; our experiments use the
// synthetic stand-ins from gen/ (see DESIGN.md §3).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "support/status.h"

namespace opim {

/// Options for LoadEdgeList.
struct EdgeListOptions {
  /// If true, each input line "u v" adds both directions (undirected data,
  /// e.g. Orkut).
  bool undirected = false;
  /// Weighting applied to edges without an explicit third column.
  WeightScheme scheme = WeightScheme::kWeightedCascade;
  /// Constant probability for WeightScheme::kConstant / kUniformRandom.
  double constant_p = 0.1;
  /// Seed for randomized weight schemes.
  uint64_t seed = 1;
};

/// Loads a SNAP-style edge list: one "u v" or "u v p" per line, `#` starts
/// a comment (full-line or trailing), arbitrary whitespace separation, CRLF
/// accepted. Node ids may be sparse; they are compacted to [0, n)
/// preserving first-appearance order, and on success `file_ids` (when
/// set) receives each node's id in the file, indexed by node id. Parsing
/// is strict: truncated lines, negative/non-numeric/overflowing ids,
/// non-finite or out-of-[0,1] probabilities, and trailing junk return
/// InvalidArgument with the offending line number rather than
/// mis-parsing.
Result<Graph> LoadEdgeList(const std::string& path,
                           const EdgeListOptions& options = {},
                           std::vector<uint64_t>* file_ids = nullptr);

/// Parses an edge list from an in-memory string (same format as
/// LoadEdgeList). Useful for tests and docs.
Result<Graph> ParseEdgeList(const std::string& text,
                            const EdgeListOptions& options = {},
                            std::vector<uint64_t>* file_ids = nullptr);

/// Writes `g` as "u v p" lines with a `#` header. Inverse of LoadEdgeList
/// with explicit probabilities.
Status SaveEdgeList(const Graph& g, const std::string& path);

/// The edge-list parser's strict token reads, for tools that take the
/// same values as flags. ParseDecimalU64 accepts only an all-digit token
/// that fits uint64 (so "-1", "+2", "3a" and "" fail: no sign can wrap);
/// ParseProbability accepts a whole token that is a finite value in
/// [0, 1] (no "nan"/"inf"). Both leave `*out` untouched on failure.
bool ParseDecimalU64(std::string_view tok, uint64_t* out);
bool ParseProbability(std::string_view tok, double* out);

}  // namespace opim
