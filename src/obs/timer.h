// ScopedTimer, built on support/Stopwatch: RAII timing of a scope, whose
// wall time is recorded, in microseconds, into a Histogram on destruction
// (nullptr histogram = measure only). The telemetry macros
// (OPIM_TM_SCOPED_TIMER, obs/telemetry.h) are built on it.
//
// Timers observe, never steer: elapsed times must not influence any
// algorithmic choice (see obs/metrics.h).

#pragma once

#include <cstdint>

#include "obs/metrics.h"
#include "support/stopwatch.h"

namespace opim {

/// Records the lifetime of a scope into `histogram` (in microseconds).
class ScopedTimer {
 public:
  /// `histogram` may be nullptr to time without recording.
  explicit ScopedTimer(Histogram* histogram) : histogram_(histogram) {}
  ~ScopedTimer() {
    if (histogram_ != nullptr) histogram_->Record(ElapsedMicros());
  }
  OPIM_DISALLOW_COPY(ScopedTimer);

  /// Microseconds since construction (monotone non-decreasing).
  uint64_t ElapsedMicros() const {
    return static_cast<uint64_t>(watch_.ElapsedSeconds() * 1e6);
  }
  double ElapsedSeconds() const { return watch_.ElapsedSeconds(); }

 private:
  Stopwatch watch_;
  Histogram* histogram_;
};

}  // namespace opim
