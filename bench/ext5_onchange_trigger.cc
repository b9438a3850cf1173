// Extension E5: dependency-driven checking vs. periodic polling (paper §6).
//
// The paper closes by asking whether "trigger-based periodic checking" can
// be improved by "tracking a minimal set of data dependencies, enabling such
// properties to be automatically checked only when relevant system state
// changes". osguard implements that as the ONCHANGE trigger; this bench
// quantifies the trade:
//
//   (a) detection latency: TIMER detects at the next tick (uniform
//       ~interval/2 delay), ONCHANGE detects at the violating write;
//   (b) overhead: TIMER burns checks while the key is quiet, ONCHANGE costs
//       only on writes — but pays on *every* write of a hot key.

#include <cstdio>
#include <string>

#include "bench/timing.h"
#include "src/runtime/engine.h"
#include "src/support/logging.h"
#include "src/support/rng.h"
#include "src/support/stats.h"

namespace osguard {
namespace {

std::string TimerSpec(Duration interval) {
  return "guardrail timer-watch {\n"
         "  trigger: { TIMER(" +
         std::to_string(interval) + ", " + std::to_string(interval) +
         ") },\n"
         "  rule: { LOAD_OR(metric, 0) <= 10 },\n"
         "  action: { SAVE(detected_at, LOAD_OR(detected_at, NOW())) }\n}\n";
}

constexpr char kChangeSpec[] = R"(
  guardrail change-watch {
    trigger: { ONCHANGE(metric) },
    rule: { LOAD_OR(metric, 0) <= 10 },
    action: { SAVE(detected_at, LOAD_OR(detected_at, NOW())) }
  }
)";

// Mean detection latency over many runs with violations at random offsets.
void DetectionLatency() {
  std::printf("# (a) detection latency of a violation injected at a random time\n");
  std::printf("%-22s %18s\n", "trigger", "mean_latency_ms");
  Rng rng(1);
  for (const char* mode : {"TIMER(1s)", "TIMER(100ms)", "ONCHANGE"}) {
    StreamingStats latency_ms;
    Rng local = rng;  // same injection times for every mode
    for (int run = 0; run < 200; ++run) {
      FeatureStore store;
      PolicyRegistry registry;
      Engine engine(&store, &registry);
      std::string spec;
      if (std::string(mode) == "TIMER(1s)") {
        spec = TimerSpec(Seconds(1));
      } else if (std::string(mode) == "TIMER(100ms)") {
        spec = TimerSpec(Milliseconds(100));
      } else {
        spec = kChangeSpec;
      }
      (void)engine.LoadSource(spec);
      const SimTime inject = Milliseconds(local.UniformInt(0, 10000));
      engine.AdvanceTo(inject);
      store.Save("metric", Value(50));
      engine.AdvanceTo(inject + Seconds(2));
      const double detected = store.LoadOr("detected_at", Value(-1)).NumericOr(-1);
      if (detected >= 0) {
        latency_ms.Add((detected - static_cast<double>(inject)) / kMillisecond);
      }
    }
    std::printf("%-22s %18.2f\n", mode, latency_ms.mean());
  }
}

// Host overhead for quiet vs. hot keys.
void Overhead() {
  std::printf("\n# (b) host overhead, 60 simulated seconds\n");
  std::printf("%-22s %-14s %12s %16s\n", "trigger", "key_writes", "evals",
              "wall_ns_total");
  struct Case {
    const char* label;
    bool onchange;
    Duration interval;
    int writes_per_sec;
  };
  for (const Case& c : {Case{"TIMER(100ms), quiet", false, Milliseconds(100), 0},
                        Case{"ONCHANGE, quiet", true, 0, 0},
                        Case{"TIMER(100ms), hot", false, Milliseconds(100), 10000},
                        Case{"ONCHANGE, hot", true, 0, 10000}}) {
    FeatureStore store;
    PolicyRegistry registry;
    Engine engine(&store, &registry);
    (void)engine.LoadSource(c.onchange ? kChangeSpec : TimerSpec(c.interval));
    store.Save("metric", Value(1));

    const int64_t start = WallNs();
    const int total_writes = c.writes_per_sec * 60;
    SimTime t = 0;
    if (total_writes > 0) {
      const Duration gap = Seconds(60) / total_writes;
      for (int i = 0; i < total_writes; ++i) {
        t += gap;
        engine.AdvanceTo(t);
        store.Save("metric", Value(1));
      }
    }
    engine.AdvanceTo(Seconds(60));
    const int64_t elapsed = WallNs() - start;
    std::printf("%-22s %-14d %12llu %16lld\n", c.label, total_writes,
                static_cast<unsigned long long>(engine.stats().evaluations),
                static_cast<long long>(elapsed));
  }
  std::printf(
      "\n# ONCHANGE wins on both axes for sparse keys (instant detection, zero idle\n"
      "# cost) and loses on evaluation count for hot keys — sample those with TIMER.\n");
}

int Main() {
  Logger::Global().set_level(LogLevel::kOff);
  std::printf("# E5: ONCHANGE (dependency-driven) vs TIMER (periodic) checking\n");
  DetectionLatency();
  Overhead();
  return 0;
}

}  // namespace
}  // namespace osguard

int main() { return osguard::Main(); }
