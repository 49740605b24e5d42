// Deterministic fault-injection sites for the run-guardrail paths.
//
// The CMake option OPIM_FAULT_INJECT (default OFF) defines
// OPIM_FAULT_INJECT_ENABLED. With it OFF — the shipping configuration —
// OPIM_FAULT_POINT(site) is the literal constant `false`, so every site
// folds away at compile time and the release binary carries zero
// overhead (scripts/check_guardrail_overhead.sh verifies this the same
// way check_telemetry_overhead.sh verifies the telemetry gate).
//
// With it ON, each site is a named counter in a process-wide registry.
// Tests arm a site to fire on its Nth evaluation (fault::Arm), which makes
// every degradation path — worker exceptions, memory-budget trips, clock
// skew past a deadline — reproducible in CI instead of only in
// production. A site fires exactly once per arming; Reset() clears the
// registry between tests.
//
// Known sites (see docs/robustness.md):
//   rrset.worker_throw   evaluated once per RR sample inside each staged
//                        shard of an engine batch; firing throws from the
//                        shard task (exercises TaskGroup exception
//                        capture and StopReason::kWorkerFailure).
//   rrset.speculation_throw
//                        evaluated once per RR sample inside *speculative*
//                        staged shards only (the pipelined doubling loop's
//                        lookahead sampling; dead on eager paths). Firing
//                        throws from the speculative task: swallowed when
//                        the staged batches are discarded, kWorkerFailure
//                        (or propagation without a control) when they
//                        would have been merged as the doubling.
//   runctl.clock_skew    evaluated once per RunControl::Poll; firing
//                        permanently skews the control's observed clock
//                        far past any deadline (StopReason::kDeadline).
//   runctl.mem_spike     evaluated once per RunControl::Poll; firing
//                        makes every subsequent poll report a footprint
//                        above any finite budget (kMemoryBudget).
//   io.mmap_fail         evaluated once per MmapArena::MapFile; firing
//                        fails the map with IOError before the file is
//                        opened (exercises the .opimg heap-read fallback
//                        and SamplingView's stay-on-heap path).
//   io.short_write       evaluated once per RRCollection::SpillColdChunks
//                        eviction pass, before any chunk is written;
//                        firing fails the spill with IOError and no state
//                        change (the engine trips kSpillFailure).
//   snapshot.short_write evaluated once per atomic-file write
//                        (support/atomic_file.h), before any byte reaches
//                        the temp file; firing fails the snapshot write
//                        with IOError, the temp is unlinked, and any
//                        previous snapshot at the target path survives.
//   snapshot.rename_fail evaluated after the temp file is written and
//                        fsynced, before rename(2); firing fails the
//                        publish step — again leaving the previous
//                        snapshot intact (atomicity is rename-or-nothing).
//   snapshot.corrupt_header
//                        evaluated once per SaveSnapshot; firing flips a
//                        header byte before the write, simulating the
//                        torn/corrupt container that rename atomicity
//                        cannot protect against. The strict loader must
//                        reject the result (checkpoint readers treat a
//                        bad snapshot as "no snapshot", never as state).
//
// The CLI arms sites from the OPIM_FAULT_INJECT environment variable
// ("site=hit[,site=hit...]") so shell-level smoke tests can exercise the
// same paths; ArmFromEnv is a no-op when the variable is unset.

#pragma once

#ifndef OPIM_FAULT_INJECT_ENABLED
#define OPIM_FAULT_INJECT_ENABLED 0
#endif

#if OPIM_FAULT_INJECT_ENABLED

#include <cstdint>

namespace opim::fault {

/// Arms `site` to fire on its `fire_on_hit`-th evaluation (1-based).
/// Re-arming replaces the previous schedule and clears the hit count.
void Arm(const char* site, uint64_t fire_on_hit);

/// Clears every arming and hit count.
void Reset();

/// Evaluations of `site` so far (armed or not).
uint64_t Hits(const char* site);

/// Registers one evaluation of `site`; true exactly when the armed hit
/// is reached. Unarmed sites count hits and never fire. Thread-safe; the
/// Nth hit fires regardless of which thread lands on it. While NOTHING
/// is armed the call is a single relaxed atomic load and hits are not
/// counted — sites live on per-sample hot paths, so the dormant case
/// must stay within the overhead budget even in ON builds.
bool ShouldFire(const char* site);

/// Arms sites from the OPIM_FAULT_INJECT environment variable, format
/// "site=hit[,site=hit...]". Malformed entries are ignored.
void ArmFromEnv();

}  // namespace opim::fault

#define OPIM_FAULT_POINT(site) (::opim::fault::ShouldFire(site))

#else  // !OPIM_FAULT_INJECT_ENABLED

#define OPIM_FAULT_POINT(site) false

#endif  // OPIM_FAULT_INJECT_ENABLED
