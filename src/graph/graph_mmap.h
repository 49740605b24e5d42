// Memory-mappable graph container (`.opimg`): the repo's binary graph
// format. Where the text loader parses an edge list and builds the CSR
// on every load, an `.opimg` file stores the seven CSR arrays exactly as
// Graph holds them in memory, 64-byte aligned, behind a checksummed
// header — so loading is mmap(2) plus validation, and the kernel pages
// the adjacency in on first touch.
//
// Layout (all fields little-endian, the only byte order the project's
// binary formats target):
//
//   OpimgHeader (64 bytes)
//     magic[8]        "OPIMG\0v1"
//     version         u32, currently 1
//     header_bytes    u32, sizeof(OpimgHeader)
//     num_nodes       u32
//     flags           u32, reserved (must be 0)
//     num_edges       u64
//     payload_bytes   u64, total bytes after the header
//     payload_checksum u64, word-wise FNV-1a over the payload
//     reserved[2]     u64, must be 0
//   payload — seven sections, each starting on a 64-byte boundary from
//   the payload base (the header is 64 bytes, so sections are also
//   64-byte aligned in the file, matching MmapArena::kAlignment):
//     out_offsets   (n+1) x u64
//     out_neighbors m x u32
//     out_probs     m x f64
//     in_offsets    (n+1) x u64
//     in_neighbors  m x u32
//     in_probs      m x f64
//     in_weight_sum n x f64
//
// Loading follows the strict-parsing contract of graph_io: every
// rejection is a Status naming the file and the specific defect
// (truncated header, wrong magic, unsupported version, truncated or
// oversized payload, checksum mismatch, corrupt CSR offsets,
// out-of-range endpoints or probabilities, in-weight sums that are not
// finite and >= 0) — corrupt inputs never
// OPIM_CHECK-abort. When mmap itself fails (or the io.mmap_fail site
// fires), LoadOpimg degrades to reading the file into heap vectors: the
// result is bit-identical, just without shared pages.

#pragma once

#include <string>

#include "graph/graph.h"
#include "support/status.h"

namespace opim {

/// Load-time options for LoadOpimg.
struct OpimgLoadOptions {
  /// Verify the payload checksum before wrapping the graph. Costs one
  /// sequential scan over the file; disable only for benchmarking the
  /// pure page-table path.
  bool verify_checksum = true;
  /// Validate CSR structure (offset monotonicity, endpoint and
  /// probability ranges, finite non-negative in-weight sums). Same cost
  /// shape as the checksum scan.
  bool validate_structure = true;
  /// Skip mmap and read into heap vectors (the fallback path, forced).
  /// For tests and for callers that will mutate-free the file.
  bool force_heap = false;
};

/// Writes `g` as an `.opimg` file. Overwrites `path`.
Status SaveOpimg(const Graph& g, const std::string& path);

/// Loads an `.opimg` file, mmap-backed when possible (see file comment
/// for the fallback and validation contract).
Result<Graph> LoadOpimg(const std::string& path,
                        const OpimgLoadOptions& options = {});

/// Word-wise FNV-1a over `size` bytes: the `.opimg` payload checksum.
/// Consumes 8 bytes per step (tail bytes zero-padded), trading the
/// byte-wise FNV dependency chain for scan speed; only this format
/// uses it, so the variant is private to the codec but exposed for
/// tests to corrupt files deliberately.
uint64_t OpimgChecksum(const void* data, uint64_t size);

}  // namespace opim
