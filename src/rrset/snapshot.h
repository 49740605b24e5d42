// Crash-safe .opimss snapshots of the OPIM-C run state.
//
// A snapshot captures everything the doubling loop needs to continue a
// run after a crash, OOM-kill, or guardrail trip: both compressed RR
// pools (R1 and R2, serialized as their canonical chunk byte runs +
// slot words), the sampler's batch counter (the RR stream is a pure
// function of (seed, num_threads, batch_counter), so no generator
// state beyond the counter exists), and the doubling-loop position —
// next iteration, ε/δ schedule parameters, RunControl peak accounting.
// Resuming from a snapshot written at an iteration boundary and
// re-running from that iteration is bit-identical to never having
// stopped: the same seeds, the same Eq. (10) certificate, the same RR
// stream (tests/core/checkpoint_resume_test.cc pins this for the eager
// and pipelined schedules).
//
// Container layout (all little-endian, written via
// support/atomic_file.h so readers only ever see complete files):
//
//   [0, 64)   OpimssHeader — magic "OPIMSSv1", version, header size,
//             payload length, and a word-wise FNV-1a checksum of the
//             payload (the .opimg conventions from graph/graph_mmap.h).
//   [64, ...) payload:
//             SnapshotRunState (fixed 88-byte packed record)
//             pool R1: PoolSection
//             pool R2: PoolSection
//
//   PoolSection = header {num_nodes, num_sets, num_chunks,
//                 reserved (0), total_members, total_edges_examined,
//                 encoded_pool_bytes}
//               + slot words  (num_sets × u32)
//               + per chunk: u64 run length + the group-varint run
//
// LoadSnapshot is strict: truncation, trailing bytes, bad magic,
// version skew, flag skew, a nonzero reserved pool word, checksum
// mismatch, declared lengths that overflow the payload, and
// structurally invalid pools (slot offsets out of order or range,
// undecodable set encodings, member totals that do not add up) each
// fail with a distinct Status naming the file and the defect — never
// UB, never a partial result. A checkpoint reader
// treats any non-OK load as "no snapshot".
//
// Fault-injection sites snapshot.short_write / snapshot.rename_fail /
// snapshot.corrupt_header are documented in support/fault_inject.h.

#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "rrset/rr_collection.h"
#include "support/status.h"

namespace opim {

/// Current .opimss container version.
inline constexpr uint32_t kOpimssVersion = 1;

/// Byte offsets into the 64-byte header, exposed so tests and tools can
/// corrupt or inspect specific fields without re-deriving the layout.
inline constexpr size_t kOpimssHeaderBytes = 64;
inline constexpr size_t kOpimssVersionOffset = 8;
inline constexpr size_t kOpimssPayloadBytesOffset = 24;
inline constexpr size_t kOpimssChecksumOffset = 32;

#pragma pack(push, 1)
/// The doubling-loop position and run identity, serialized verbatim.
/// Resume refuses (via the engine's consistency checks and the CLI's
/// graph-fingerprint validation) to continue a run whose parameters or
/// graph differ from the snapshot's.
struct SnapshotRunState {
  uint64_t run_seed = 0;        // OpimCOptions::seed
  uint64_t batch_counter = 0;   // next RR batch index to consume
  uint64_t peak_rr_bytes = 0;   // RunControl peak at snapshot time
  uint64_t graph_edges = 0;     // graph fingerprint: m
  uint64_t weights_checksum = 0;  // FNV-1a over node weights; 0 = none
  double eps = 0.0;
  double delta = 0.0;
  uint32_t next_iteration = 1;  // doubling iteration to (re-)enter
  uint32_t num_threads = 1;     // resolved worker count (stream identity)
  uint32_t k = 0;
  uint32_t bound = 0;           // BoundKind underlying value
  uint32_t model = 0;           // DiffusionModel underlying value
  uint32_t clean_boundary = 1;  // 1 = exact iteration-boundary state
  uint32_t graph_nodes = 0;     // graph fingerprint: n
  uint32_t reserved = 0;
};
#pragma pack(pop)
static_assert(sizeof(SnapshotRunState) == 88,
              ".opimss run-state record is part of the wire format");

/// A loaded snapshot: the run position plus both restored pools, each
/// unindexed (RRCollection::BuildIndex indexes one).
struct RRPoolSnapshot {
  SnapshotRunState run;
  RRCollection r1{0};
  RRCollection r2{0};
};

/// Serializes `run` + both pools and atomically publishes the container
/// at `path` (write-to-temp + fsync + rename; on failure any previous
/// file at `path` is untouched). Spilled chunks are faulted in for the
/// write. Returns the container size in bytes.
Result<uint64_t> SaveSnapshot(const SnapshotRunState& run,
                              const RRCollection& r1, const RRCollection& r2,
                              const std::string& path);

/// Strictly validates and loads a snapshot container. See the file
/// comment for the rejection taxonomy; safe on untrusted bytes.
Result<RRPoolSnapshot> LoadSnapshot(const std::string& path);

/// Fingerprint for the optional node-weight vector carried in
/// SnapshotRunState::weights_checksum (0 for an empty span).
uint64_t SnapshotWeightsChecksum(std::span<const double> weights);

}  // namespace opim
