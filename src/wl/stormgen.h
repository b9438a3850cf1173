// Callout-storm workload generation (osguard::wl).
//
// Models the overload shape the governor exists for: an instrumented
// function whose callout rate alternates between a calm baseline and storm
// windows orders of magnitude hotter (a hot loop entering the instrumented
// path, a stampede of clients, a tracing bug). Arrivals are Poisson within
// each phase, so the trace has realistic gap jitter while remaining a pure
// function of (options, seed, start) — the differential campaigns replay it
// bit-identically on every run.
//
// The trace is just timestamps + phase tags; the consumer drives
// Kernel::Callout with them (bench/ext12_overload_governor, the governor
// tests). A trailing calm tail is included so recovery — the governor
// walking back down to full service — is observable in the same trace.

#ifndef SRC_WL_STORMGEN_H_
#define SRC_WL_STORMGEN_H_

#include <cstdint>
#include <vector>

#include "src/support/rng.h"
#include "src/support/time.h"

namespace osguard {

struct StormWorkloadOptions {
  // Phase layout: calm, then `cycles` repetitions of (storm, calm), the
  // final calm lasting `tail` instead of `calm` so recovery has room.
  Duration calm = Seconds(2);
  Duration storm = Seconds(1);
  Duration tail = Seconds(4);
  uint32_t cycles = 1;
  // Poisson callout rates per phase (callouts per simulated second).
  double calm_rate = 200.0;
  double storm_rate = 50000.0;
};

struct StormEvent {
  SimTime at = 0;
  bool storm = false;  // tagged with the phase that emitted it
};

class StormGenerator {
 public:
  StormGenerator(StormWorkloadOptions options, uint64_t seed)
      : options_(options), rng_(seed) {}

  // Full trace starting at `start`, ordered by time. Deterministic.
  std::vector<StormEvent> Generate(SimTime start = 0);

  Duration TotalDuration() const;

 private:
  StormWorkloadOptions options_;
  Rng rng_;
};

}  // namespace osguard

#endif  // SRC_WL_STORMGEN_H_
