// Extension E12: overload governor.
//
// The paper's pitch is guardrails cheap enough to leave always-on; this
// extension measures what happens when the *guardrail plane itself* is the
// thing under attack — a callout storm that would otherwise scale monitor
// cost without bound:
//
//   (a) storm shedding: evaluation counts and per-callout wall latency
//       (p50/p99) through a calm -> storm -> tail cycle, governed vs
//       ungoverned, plus the ladder depth reached and the shed breakdown;
//   (b) recovery latency: callouts from the end of the storm until the
//       ladder is back at full service, across de-escalation dwell settings.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/timing.h"
#include "src/runtime/governor/governor.h"
#include "src/sim/kernel.h"
#include "src/support/logging.h"
#include "src/wl/stormgen.h"

namespace osguard {
namespace {

// A monitor population wide enough that shedding is visible: one critical
// gate, three standard watches, four best-effort probes.
constexpr char kBenchSpec[] = R"(
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

EngineOptions GovernedOptions(bool governed, int dwell_down = 8) {
  EngineOptions options;
  options.measure_wall_time = false;
  options.governor.enabled = governed;
  options.governor.pressure_up = 20000.0;
  options.governor.pressure_down = 2000.0;
  options.governor.dwell_up = 4;
  options.governor.dwell_down = dwell_down;
  options.governor.sample_every = 4;
  options.governor.alpha = 0.3;
  return options;
}

std::vector<StormEvent> BenchStorm(uint64_t seed) {
  StormWorkloadOptions options;
  options.calm = Milliseconds(100);
  options.storm = Milliseconds(50);
  options.tail = Milliseconds(200);
  options.calm_rate = 200.0;
  options.storm_rate = 80000.0;
  return StormGenerator(options, seed).Generate(Milliseconds(1));
}

struct StormRun {
  uint64_t evals = 0;
  uint64_t callouts = 0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  GovernorStats gov;
  GovernorMode deepest = GovernorMode::kFull;
  GovernorMode final_mode = GovernorMode::kFull;
};

StormRun DriveStorm(bool governed, uint64_t seed) {
  Kernel kernel(GovernedOptions(governed));
  (void)kernel.LoadGuardrails(kBenchSpec);
  std::vector<double> samples;
  StormRun run;
  for (const StormEvent& event : BenchStorm(seed)) {
    kernel.Run(event.at);
    kernel.store().Save("sys.pressure",
                        Value(static_cast<int64_t>(event.storm ? 80 : 10)));
    const int64_t start = WallNs();
    kernel.Callout("hot_path");
    samples.push_back(static_cast<double>(WallNs() - start));
    run.deepest = std::max(run.deepest, kernel.engine().governor().mode());
    ++run.callouts;
  }
  std::sort(samples.begin(), samples.end());
  const size_t last = samples.size() - 1;
  run.p50_ns = samples[last / 2];
  run.p99_ns = samples[static_cast<size_t>(static_cast<double>(last) * 0.99)];
  run.evals = kernel.engine().stats().evaluations;
  run.gov = kernel.engine().governor().stats();
  run.final_mode = kernel.engine().governor().mode();
  return run;
}

// (a) governed vs ungoverned through the same storm.
void StormShedding() {
  std::printf("# (a) storm shedding: calm -> 80k/s storm -> tail, 8 monitors\n");
  std::printf("%-12s %10s %10s %10s %10s %12s %12s\n", "regime", "callouts",
              "evals", "p50_ns", "p99_ns", "sheds", "deepest");
  for (const bool governed : {false, true}) {
    const StormRun run = DriveStorm(governed, 42);
    const uint64_t sheds =
        run.gov.sheds_besteffort + run.gov.sheds_standard + run.gov.static_suppressed;
    std::printf("%-12s %10llu %10llu %10.0f %10.0f %12llu %12s\n",
                governed ? "governed" : "ungoverned",
                static_cast<unsigned long long>(run.callouts),
                static_cast<unsigned long long>(run.evals),
                run.p50_ns, run.p99_ns,
                static_cast<unsigned long long>(sheds),
                std::string(GovernorModeName(run.deepest)).c_str());
  }
  const StormRun governed = DriveStorm(true, 42);
  std::printf(
      "# critical_sheds = %llu (invariant: 0 — the critical gate is never\n"
      "# dropped; in fail-static its corrective default was pinned %llu time(s))\n",
      static_cast<unsigned long long>(governed.gov.critical_sheds),
      static_cast<unsigned long long>(governed.gov.static_applies));
}

// (b) callouts from storm end until the ladder is back at kFull.
void RecoveryLatency() {
  std::printf("\n# (b) recovery: calm callouts to return to full service\n");
  std::printf("%-12s %16s %12s\n", "dwell_down", "recovery_callouts", "final");
  for (const int dwell : {4, 8, 16}) {
    Kernel kernel(GovernedOptions(true, dwell));
    (void)kernel.LoadGuardrails(kBenchSpec);
    // Drive the ladder down with a dense storm burst.
    SimTime t = Milliseconds(1);
    for (int i = 0; i < 200; ++i) {
      kernel.Run(t);
      kernel.Callout("hot_path");
      t += Microseconds(20);
    }
    uint64_t recovery = 0;
    while (kernel.engine().governor().mode() != GovernorMode::kFull &&
           recovery < 1000) {
      t += Milliseconds(10);
      kernel.Run(t);
      kernel.Callout("hot_path");
      ++recovery;
    }
    std::printf("%-12d %16llu %12s\n", dwell,
                static_cast<unsigned long long>(recovery),
                std::string(GovernorModeName(kernel.engine().governor().mode()))
                    .c_str());
  }
}

int Main() {
  Logger::Global().set_level(LogLevel::kOff);
  std::printf("# E12: overload governor\n");
  StormShedding();
  RecoveryLatency();
  return 0;
}

}  // namespace
}  // namespace osguard

int main() { return osguard::Main(); }
