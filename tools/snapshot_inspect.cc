// snapshot_inspect: validate and dump a .opimss checkpoint container
// (rrset/snapshot.h), for CI gating and post-mortem debugging.
//
//   snapshot_inspect <snapshot.opimss>
//
// The file is loaded through the strict LoadSnapshot path — the same
// checksum, length, and pool-structure validation the --resume flow
// uses — so exit 0 here means the CLI would accept the file. On
// success the raw header words, the run-state record, and a per-pool
// summary (sets, chunks, members, compressed bytes) are printed, one
// "key=value" per line. On rejection the loader's Status (which names
// the defect) is printed to stderr.
//
// Exit codes: 0 valid, 1 invalid or unreadable, 2 usage error.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "rrset/rr_collection.h"
#include "rrset/snapshot.h"
#include "support/status.h"

namespace {

// Best-effort raw peek at the fixed header words, printed before strict
// validation so a corrupt file's header is still visible in the output.
void DumpRawHeader(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> head(opim::kOpimssHeaderBytes, 0);
  if (!in.read(head.data(), static_cast<std::streamsize>(head.size()))) {
    std::printf("header=<shorter than %zu bytes>\n", opim::kOpimssHeaderBytes);
    return;
  }
  char magic[9] = {};
  std::memcpy(magic, head.data(), 8);
  for (char& c : magic) {
    if (c != '\0' && (c < 0x20 || c > 0x7e)) c = '.';
  }
  uint32_t version = 0;
  uint64_t payload_bytes = 0;
  uint64_t checksum = 0;
  std::memcpy(&version, head.data() + opim::kOpimssVersionOffset,
              sizeof(version));
  std::memcpy(&payload_bytes, head.data() + opim::kOpimssPayloadBytesOffset,
              sizeof(payload_bytes));
  std::memcpy(&checksum, head.data() + opim::kOpimssChecksumOffset,
              sizeof(checksum));
  std::printf("magic=%s\n", magic);
  std::printf("version=%" PRIu32 "\n", version);
  std::printf("payload_bytes=%" PRIu64 "\n", payload_bytes);
  std::printf("payload_checksum=0x%016" PRIx64 "\n", checksum);
}

void DumpPool(const char* name, const opim::RRCollection& pool) {
  std::printf("%s.num_sets=%" PRIu32 "\n", name, pool.num_sets());
  std::printf("%s.num_chunks=%" PRIu32 "\n", name, pool.num_pool_chunks());
  std::printf("%s.total_members=%" PRIu64 "\n", name, pool.total_size());
  std::printf("%s.compressed_bytes=%" PRIu64 "\n", name,
              pool.CompressedMemberBytes());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2 || argv[1][0] == '\0' ||
      std::strncmp(argv[1], "--help", 6) == 0) {
    std::fprintf(stderr, "usage: snapshot_inspect <snapshot.opimss>\n");
    return 2;
  }
  const std::string path = argv[1];
  DumpRawHeader(path);

  opim::Result<opim::RRPoolSnapshot> snap = opim::LoadSnapshot(path);
  if (!snap.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 snap.status().ToString().c_str());
    return 1;
  }
  const opim::RRPoolSnapshot& s = snap.ValueOrDie();
  const opim::SnapshotRunState& rs = s.run;
  std::printf("run.seed=%" PRIu64 "\n", rs.run_seed);
  std::printf("run.batch_counter=%" PRIu64 "\n", rs.batch_counter);
  std::printf("run.next_iteration=%" PRIu32 "\n", rs.next_iteration);
  std::printf("run.clean_boundary=%" PRIu32 "\n", rs.clean_boundary);
  std::printf("run.k=%" PRIu32 "\n", rs.k);
  std::printf("run.eps=%g\n", rs.eps);
  std::printf("run.delta=%g\n", rs.delta);
  std::printf("run.num_threads=%" PRIu32 "\n", rs.num_threads);
  std::printf("run.bound=%" PRIu32 "\n", rs.bound);
  std::printf("run.model=%" PRIu32 "\n", rs.model);
  std::printf("run.graph_nodes=%" PRIu32 "\n", rs.graph_nodes);
  std::printf("run.graph_edges=%" PRIu64 "\n", rs.graph_edges);
  std::printf("run.weights_checksum=0x%016" PRIx64 "\n", rs.weights_checksum);
  std::printf("run.peak_rr_bytes=%" PRIu64 "\n", rs.peak_rr_bytes);
  DumpPool("r1", s.r1);
  DumpPool("r2", s.r2);
  std::printf("snapshot_inspect: ok\n");
  return 0;
}
