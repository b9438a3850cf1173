// The E12 overload-governor storm, shared by governor_test (ladder gates)
// and timing_test (storm-phase p99): eight FUNCTION monitors over the three
// criticality tiers, the governor options, and the seeded callout storm
// (calm 100 ms, storm 50 ms at 80k callouts/s, calm tail 200 ms).

#ifndef TESTS_GOVERNOR_STORM_H_
#define TESTS_GOVERNOR_STORM_H_

#include <cstdint>
#include <vector>

#include "src/runtime/engine.h"
#include "src/sim/kernel.h"
#include "src/support/time.h"
#include "src/wl/stormgen.h"

namespace osguard {

inline constexpr char kGovernorStormSpec[] = R"(
  guardrail crit-gate {
    trigger: { FUNCTION(hot_path) },
    rule: { LOAD_OR(sys.pressure, 0) <= 90 },
    action: { SAVE(ctl.safe_mode, true); REPORT("pressure gate") },
    meta: { severity = critical, criticality = critical }
  }
  guardrail std-a { trigger: { FUNCTION(hot_path) },
                    rule: { LOAD_OR(sys.pressure, 0) <= 95 },
                    action: { REPORT("std-a") } }
  guardrail std-b { trigger: { FUNCTION(hot_path) },
                    rule: { LOAD_OR(sys.load, 0) <= 900000 },
                    action: { REPORT("std-b") } }
  guardrail std-c { trigger: { FUNCTION(hot_path) },
                    rule: { LOAD_OR(sys.load, 0) >= 0 },
                    action: { REPORT("std-c") } }
  guardrail be-a { trigger: { FUNCTION(hot_path) },
                   rule: { LOAD_OR(sys.load, 0) <= 1000000 },
                   action: { REPORT("be-a") },
                   meta: { criticality = besteffort } }
  guardrail be-b { trigger: { FUNCTION(hot_path) },
                   rule: { LOAD_OR(sys.pressure, 0) <= 99 },
                   action: { REPORT("be-b") },
                   meta: { criticality = besteffort } }
  guardrail be-c { trigger: { FUNCTION(hot_path) },
                   rule: { LOAD_OR(sys.load, 0) >= -1 },
                   action: { REPORT("be-c") },
                   meta: { criticality = besteffort } }
  guardrail be-d { trigger: { FUNCTION(hot_path) },
                   rule: { LOAD_OR(sys.pressure, 0) >= -1 },
                   action: { REPORT("be-d") },
                   meta: { criticality = besteffort } }
)";

// The engine options of both arms; only `governor.enabled` differs.
inline EngineOptions GovernorStormOptions(bool governed) {
  EngineOptions options;
  options.measure_wall_time = false;
  options.governor.enabled = governed;
  options.governor.pressure_up = 20000.0;
  options.governor.pressure_down = 2000.0;
  options.governor.dwell_up = 4;
  options.governor.dwell_down = 8;
  options.governor.sample_every = 4;
  options.governor.alpha = 0.3;
  return options;
}

// The 4,024-callout storm cycle (seed 42).
inline std::vector<StormEvent> GovernorStorm() {
  StormWorkloadOptions options;
  options.calm = Milliseconds(100);
  options.storm = Milliseconds(50);
  options.tail = Milliseconds(200);
  options.calm_rate = 200.0;
  options.storm_rate = 80000.0;
  return StormGenerator(options, 42).Generate(Milliseconds(1));
}

// Runs `kernel` to the event's time and publishes its pressure signal (80 in
// the storm, 10 when calm). The caller then makes the "hot_path" callout.
inline void StageStormEvent(Kernel& kernel, const StormEvent& event) {
  kernel.Run(event.at);
  kernel.store().Save("sys.pressure", Value(static_cast<int64_t>(event.storm ? 80 : 10)));
}

}  // namespace osguard

#endif  // TESTS_GOVERNOR_STORM_H_
