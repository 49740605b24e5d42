#include "fingerprint.h"

#include <thread>

#include "obs/json.h"
#include "rrset/cover_bitset.h"
#include "support/thread_pool.h"

namespace perfbench {

namespace {

std::string DetectSanitizer() {
  std::string configured = OPIM_PERFBENCH_SANITIZE;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  if (configured.empty()) configured = "compiler";
#endif
  return configured;
}

}  // namespace

Fingerprint HostFingerprint(unsigned requested_threads) {
  Fingerprint fp;
  fp.nproc = std::thread::hardware_concurrency();
  fp.threads = opim::ThreadPool::ResolveThreadCount(requested_threads);
  fp.simd = opim::ActiveCoverageKernelName();
#if defined(__clang__)
  fp.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  fp.compiler = std::string("gcc ") + __VERSION__;
#else
  fp.compiler = "unknown";
#endif
  fp.build_type = OPIM_PERFBENCH_BUILD_TYPE;
  fp.telemetry = OPIM_TELEMETRY_ENABLED != 0;
  fp.fault_inject = OPIM_FAULT_INJECT_ENABLED != 0;
  fp.sanitizer = DetectSanitizer();
  return fp;
}

void Fingerprint::AppendTo(opim::JsonWriter& w) const {
  w.BeginObject();
  w.Key("nproc").Value(static_cast<uint64_t>(nproc));
  w.Key("threads").Value(static_cast<uint64_t>(threads));
  w.Key("simd").Value(simd);
  w.Key("compiler").Value(compiler);
  w.Key("build_type").Value(build_type);
  w.Key("telemetry").Value(telemetry);
  w.Key("fault_inject").Value(fault_inject);
  w.Key("sanitizer").Value(sanitizer);
  w.EndObject();
}

}  // namespace perfbench
