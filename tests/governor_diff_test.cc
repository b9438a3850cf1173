// Warm-restart differential for the overload governor (docs/GOVERNOR.md):
// a governed kernel that panics mid-storm and warm-restarts must end in the
// same observable state as an uninterrupted run of the same seed. The panic
// typically lands mid-ladder, so the restart must resume the same rung,
// stride positions, and pinned fail-static episodes. Each seed drives a
// storm-shaped workload (osguard::wl::StormGenerator) through two journaled
// kernels and compares the full observable state (store slots, report ring,
// engine image — including the governor ladder) byte for byte via the
// persist codec. The governor reads only simulated-time signals, and no
// host-clock value enters the image or the store, so its transitions replay
// bit-identically with the engine's host clock on.
//
// 150 seeds per run. OSGUARD_CHAOS_SEED offsets the seed base so CI matrices
// explore fresh seeds without code changes.

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/persist/persist.h"
#include "src/runtime/engine.h"
#include "src/runtime/governor/governor.h"
#include "src/sim/kernel.h"
#include "src/store/feature_store.h"
#include "src/support/logging.h"
#include "src/support/rng.h"
#include "src/support/time.h"
#include "src/wl/stormgen.h"
#include "tests/test_dir.h"

namespace osguard {
namespace {

namespace fs = std::filesystem;

uint64_t SeedBase() {
  const char* env = std::getenv("OSGUARD_CHAOS_SEED");
  return env != nullptr ? static_cast<uint64_t>(std::strtoull(env, nullptr, 10)) : 0;
}

// Criticality-rich spec: pure-read rules in all three tiers, a monitor that
// reads a key another monitor's action writes, a windowed aggregate, and a
// TIMER monitor for the AdvanceTo path.
constexpr char kGovDiffSpec[] = R"(
  guardrail crit_gate {
    trigger: { FUNCTION(hot_path) },
    rule: { LOAD_OR(sys.pressure, 0) <= 75 },
    action: { SAVE(ctl.safe_mode, true); INCR(crit.trips); REPORT("pressure high") },
    meta: { severity = critical, criticality = critical }
  }
  guardrail std_mean {
    trigger: { FUNCTION(hot_path) },
    rule: { COUNT(io.lat, 50ms) == 0 || MEAN(io.lat, 50ms) <= 2000000 },
    action: { REPORT("mean high") }
  }
  guardrail std_err {
    trigger: { FUNCTION(hot_path) },
    rule: { LOAD_OR(err.rate, 0.0) <= 0.7 },
    action: { REPORT() },
    meta: { hysteresis = 2, cooldown = 10ms }
  }
  guardrail be_load {
    trigger: { FUNCTION(hot_path) },
    rule: { LOAD_OR(sys.load, 0) <= 800 },
    action: { REPORT("load high") },
    meta: { criticality = besteffort }
  }
  guardrail be_probe {
    trigger: { FUNCTION(hot_path) },
    rule: { LOAD_OR(probe.value, 0) <= 60 },
    action: { REPORT("probe high") },
    meta: { criticality = besteffort }
  }
  guardrail trip_watch {
    trigger: { FUNCTION(hot_path) },
    rule: { LOAD_OR(crit.trips, 0) <= 12 },
    action: { REPORT("too many trips") }
  }
  guardrail periodic {
    trigger: { TIMER(15ms, 15ms) },
    rule: { LOAD_OR(sys.load, 0) <= 900 },
    action: { REPORT("periodic load high") },
    meta: { criticality = besteffort }
  }
)";

// Governor tuned so realistic storm rates actually walk the ladder.
EngineOptions GovDiffEngineOptions() {
  EngineOptions options;
  options.governor.enabled = true;
  options.governor.pressure_up = 8000.0;
  options.governor.pressure_down = 800.0;
  options.governor.depth_up = 1e18;
  options.governor.depth_down = 1e18 - 1;
  options.governor.dwell_up = 2;
  options.governor.dwell_down = 3;
  options.governor.sample_every = 3;
  options.governor.alpha = 0.4;
  return options;
}

// Per-seed storm shape: rates and phase lengths vary so the campaign sweeps
// gentle storms the ladder barely notices and violent ones that bottom out.
StormWorkloadOptions StormFor(uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 23);
  StormWorkloadOptions options;
  options.calm = Milliseconds(static_cast<int64_t>(rng.UniformInt(8, 20)));
  options.storm = Milliseconds(static_cast<int64_t>(rng.UniformInt(5, 15)));
  options.tail = Milliseconds(static_cast<int64_t>(rng.UniformInt(20, 40)));
  options.cycles = 1;
  options.calm_rate = rng.Uniform(200.0, 600.0);
  options.storm_rate = rng.Uniform(4000.0, 12000.0);
  return options;
}

// Runs the seed's storm to completion through a kernel journaled into
// `persist_dir` and returns the wire-encoded observable state. Everything the
// workload does is derived from `seed`, so both runs of a seed see identical
// inputs. With `reboot`, the kernel panics and warm-restarts half-way
// through the storm.
std::string RunStorm(uint64_t seed, const std::string& persist_dir, bool reboot,
                     GovernorStats* gov_out = nullptr) {
  Kernel kernel(GovDiffEngineOptions());
  PersistOptions persist_options;
  persist_options.dir = persist_dir;
  PersistManager persist(persist_options);
  kernel.AttachPersist(&persist);
  EXPECT_TRUE(kernel.LoadGuardrails(kGovDiffSpec).ok());
  EXPECT_TRUE(persist.Open().ok());

  StormGenerator generator(StormFor(seed), seed);
  const std::vector<StormEvent> events = generator.Generate(Milliseconds(1));
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 5);
  const size_t panic_at = reboot ? events.size() / 2 : events.size() + 1;
  for (size_t i = 0; i < events.size(); ++i) {
    const StormEvent& event = events[i];
    kernel.Run(event.at);
    const SimTime now = kernel.now();
    if (rng.Bernoulli(0.3)) {
      kernel.store().Observe("io.lat", now,
                             rng.Bernoulli(0.2) ? rng.Uniform(2.0e6, 8.0e6)
                                                : rng.Uniform(1.0e5, 1.5e6));
    }
    if (rng.Bernoulli(0.2)) {
      kernel.store().Save("err.rate", Value(rng.Uniform(0.0, 1.0)));
    }
    if (rng.Bernoulli(0.2)) {
      kernel.store().Save("probe.value", Value(rng.Uniform(0.0, 90.0)));
    }
    kernel.store().Save("sys.pressure",
                        Value(static_cast<int64_t>(event.storm ? 80 : 10)));
    kernel.store().Save("sys.load",
                        Value(static_cast<int64_t>(rng.UniformInt(0, 1000))));
    kernel.Callout("hot_path");
    if (i == panic_at) {
      // Crash mid-storm: the governor is typically mid-ladder here, so the
      // warm restart must resume the same rung, stride positions, and
      // pinned fail-static episodes as the uninterrupted run.
      kernel.Panic();
      auto recovery = kernel.Reboot();
      EXPECT_TRUE(recovery.ok());
      if (recovery.ok()) {
        EXPECT_FALSE(recovery.value().cold_start);
      }
    }
  }

  if (gov_out != nullptr) {
    *gov_out = kernel.engine().governor().stats();
  }
  Snapshot snapshot;
  snapshot.store = kernel.store().DumpSlots();
  snapshot.report_ring = kernel.engine().EncodeReportRing();
  snapshot.image = kernel.engine().EncodeImage();
  return EncodeSnapshot(snapshot);
}

class GovernorDiffTest : public ::testing::Test {
 protected:
  GovernorDiffTest() { Logger::Global().set_level(LogLevel::kOff); }
};

TEST_F(GovernorDiffTest, PanicWarmRestartSeeds) {
  const uint64_t base = SeedBase() + 0x70000;
  const fs::path reference_dir = FreshTestDir("reference");
  const fs::path restart_dir = FreshTestDir("restart");
  uint64_t transitions = 0;
  uint64_t critical_sheds = 0;
  for (uint64_t i = 0; i < 150; ++i) {
    const uint64_t seed = base + i;
    const fs::path reference = reference_dir / std::to_string(seed);
    const fs::path restart = restart_dir / std::to_string(seed);
    fs::create_directories(reference);
    fs::create_directories(restart);
    GovernorStats gov;
    const std::string expect = RunStorm(seed, reference.string(), /*reboot=*/false, &gov);
    ASSERT_EQ(expect, RunStorm(seed, restart.string(), /*reboot=*/true)) << "seed=" << seed;
    transitions += gov.transitions;
    critical_sheds += gov.critical_sheds;
  }
  // The comparison is only meaningful if the governor actually moved, and a
  // critical monitor is never shed.
  EXPECT_GT(transitions, 0u);
  EXPECT_EQ(critical_sheds, 0u);
  fs::remove_all(reference_dir);
  fs::remove_all(restart_dir);
}

}  // namespace
}  // namespace osguard
