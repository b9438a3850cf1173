// Extension E1: monitor overhead vs. trigger frequency and guardrail count.
//
// The paper's third adoption concern (§1) is that running monitors costs
// real cycles. This bench sweeps (a) TIMER interval at fixed guardrail
// count, and (b) guardrail count at fixed interval, and reports host-CPU
// nanoseconds consumed by monitor evaluation per simulated second — the
// budget a kernel deployment would pay. It also measures the per-call cost
// of FUNCTION triggers on a hot path.

#include <cstdio>
#include <string>

#include "bench/timing.h"
#include "src/runtime/engine.h"
#include "src/support/logging.h"

namespace osguard {
namespace {

std::string MakeGuardrail(int index, Duration interval) {
  return "guardrail g" + std::to_string(index) +
         " {\n"
         "  trigger: { TIMER(" +
         std::to_string(interval) + ", " + std::to_string(interval) +
         ") },\n"
         "  rule: { COUNT(metric" +
         std::to_string(index) + ", 10s) == 0 || MEAN(metric" + std::to_string(index) +
         ", 10s) <= 100 },\n"
         "  action: { REPORT() }\n"
         "}\n";
}

void SweepInterval() {
  std::printf("# (a) one guardrail, TIMER interval sweep, 60 simulated seconds\n");
  std::printf("%-12s %12s %16s %18s\n", "interval", "evals", "wall_ns_total",
              "wall_ns_per_simsec");
  for (Duration interval : {Seconds(1), Milliseconds(100), Milliseconds(10),
                            Milliseconds(1)}) {
    FeatureStore store;
    PolicyRegistry registry;
    Engine engine(&store, &registry);
    (void)engine.LoadSource(MakeGuardrail(0, interval));
    for (int i = 0; i < 1000; ++i) {
      store.Observe("metric0", Milliseconds(i * 60), 50.0);
    }
    const int64_t start = WallNs();
    engine.AdvanceTo(Seconds(60));
    const int64_t elapsed = WallNs() - start;
    std::printf("%-12s %12llu %16lld %18lld\n", FormatDuration(interval).c_str(),
                static_cast<unsigned long long>(engine.stats().evaluations),
                static_cast<long long>(elapsed), static_cast<long long>(elapsed / 60));
  }
}

void SweepCount() {
  std::printf("\n# (b) guardrail count sweep at 100ms interval, 60 simulated seconds\n");
  std::printf("%-10s %12s %16s %18s %14s\n", "guardrails", "evals", "wall_ns_total",
              "wall_ns_per_simsec", "ns_per_eval");
  for (int count : {1, 4, 16, 64, 256}) {
    FeatureStore store;
    PolicyRegistry registry;
    Engine engine(&store, &registry);
    std::string spec;
    for (int i = 0; i < count; ++i) {
      spec += MakeGuardrail(i, Milliseconds(100));
    }
    (void)engine.LoadSource(spec);
    for (int i = 0; i < count; ++i) {
      store.Observe("metric" + std::to_string(i), 0, 50.0);
    }
    const int64_t start = WallNs();
    engine.AdvanceTo(Seconds(60));
    const int64_t elapsed = WallNs() - start;
    const uint64_t evals = engine.stats().evaluations;
    std::printf("%-10d %12llu %16lld %18lld %14lld\n", count,
                static_cast<unsigned long long>(evals), static_cast<long long>(elapsed),
                static_cast<long long>(elapsed / 60),
                static_cast<long long>(evals ? elapsed / static_cast<int64_t>(evals) : 0));
  }
}

void FunctionTriggerCost() {
  std::printf("\n# (c) FUNCTION trigger on a hot path (1M callouts)\n");
  for (int hooked : {0, 1, 4}) {
    FeatureStore store;
    PolicyRegistry registry;
    Engine engine(&store, &registry);
    std::string spec;
    for (int i = 0; i < hooked; ++i) {
      spec += "guardrail f" + std::to_string(i) +
              " { trigger: { FUNCTION(hot_fn) }, rule: { LOAD_OR(x, 0) <= 1 }, "
              "action: { REPORT() } }\n";
    }
    if (!spec.empty()) {
      (void)engine.LoadSource(spec);
    }
    constexpr int kCalls = 1000000;
    const int64_t start = WallNs();
    for (int i = 0; i < kCalls; ++i) {
      engine.OnFunctionCall("hot_fn", i);
    }
    const int64_t elapsed = WallNs() - start;
    std::printf("hooked_monitors=%d ns_per_callout=%lld\n", hooked,
                static_cast<long long>(elapsed / kCalls));
  }
}

int Main() {
  Logger::Global().set_level(LogLevel::kOff);
  std::printf("# E1: monitor overhead (P5's concern, measured)\n");
  SweepInterval();
  SweepCount();
  FunctionTriggerCost();
  return 0;
}

}  // namespace
}  // namespace osguard

int main() { return osguard::Main(); }
