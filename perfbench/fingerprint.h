// Host and build fingerprint recorded with every benchmark result, so
// that two results are only compared when they ran the same build on the
// same kind of host.
#pragma once

#include <string>

namespace opim {
class JsonWriter;
}

namespace perfbench {

struct Fingerprint {
  unsigned nproc = 0;           // std::thread::hardware_concurrency()
  unsigned threads = 0;         // resolved worker count of the workload
  std::string simd;             // active coverage kernel (runtime dispatch)
  std::string compiler;
  std::string build_type;       // CMAKE_BUILD_TYPE of the library build
  bool telemetry = false;       // OPIM_TELEMETRY
  bool fault_inject = false;    // OPIM_FAULT_INJECT
  std::string sanitizer;        // "" when not sanitized

  /// Timings from sanitizer or fault-injection builds are not reportable.
  bool TimingsReportable() const {
    return sanitizer.empty() && !fault_inject;
  }

  void AppendTo(opim::JsonWriter& w) const;
};

/// Fingerprint of this binary on this host, for a workload run at
/// `requested_threads` (0 = hardware default).
Fingerprint HostFingerprint(unsigned requested_threads);

}  // namespace perfbench
