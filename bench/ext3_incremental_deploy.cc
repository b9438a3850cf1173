// Extension E3: incremental deployment and runtime updates (paper §3.3, §6).
//
// Measures (a) the cost of hot-loading guardrails into a running engine —
// compile + verify + install, with the engine continuing to evaluate — and
// (b) that replacing a guardrail at run time takes effect at the next check
// with no missed evaluations ("update guardrails at runtime without
// requiring a kernel reboot").

#include <cstdio>
#include <string>

#include "bench/timing.h"
#include "src/runtime/engine.h"
#include "src/support/logging.h"
#include "src/vm/compiler.h"

namespace osguard {
namespace {

// "g<index>", built by append: GCC 12 reports a false -Wrestrict on
// `"g" + std::to_string(index)` at -O2.
std::string IndexedName(int index) {
  std::string name = "g";
  name += std::to_string(index);
  return name;
}

std::string MakeGuardrail(const std::string& name, double threshold) {
  return "guardrail " + name +
         " {\n"
         "  trigger: { TIMER(100ms, 100ms) },\n"
         "  rule: { LOAD_OR(shared_metric, 0) <= " +
         std::to_string(threshold) +
         " },\n"
         "  action: { INCR(" +
         name + ".fires) }\n}\n";
}

void HotLoadCost() {
  std::printf("# (a) hot-load cost: compile+verify+install while the engine runs\n");
  std::printf("%-12s %18s %16s\n", "batch_size", "wall_us_per_load", "total_monitors");
  FeatureStore store;
  PolicyRegistry registry;
  Engine engine(&store, &registry);
  int next = 0;
  for (int batch : {1, 10, 100}) {
    engine.AdvanceTo(Seconds(next + 1));  // engine is mid-run
    const int64_t start = WallNs();
    for (int i = 0; i < batch; ++i) {
      (void)engine.LoadSource(MakeGuardrail(IndexedName(next++), 10.0));
    }
    const int64_t elapsed = WallNs() - start;
    std::printf("%-12d %18.1f %16zu\n", batch,
                static_cast<double>(elapsed) / 1000.0 / batch,
                engine.MonitorNames().size());
  }
}

void RuntimeUpdateTakesEffectNextCheck() {
  std::printf("\n# (b) runtime update: threshold change visible at the next check\n");
  Logger::Global().set_level(LogLevel::kOff);
  FeatureStore store;
  PolicyRegistry registry;
  Engine engine(&store, &registry);
  (void)engine.LoadSource(MakeGuardrail("g", 10.0));
  store.Save("shared_metric", Value(50.0));
  engine.AdvanceTo(Seconds(10));  // 100 checks, all violating
  const double fires_strict = store.LoadOr("g.fires", Value(0)).NumericOr(0);

  const int64_t start = WallNs();
  (void)engine.LoadSource(MakeGuardrail("g", 100.0));  // loosen at t=10s
  const int64_t swap_ns = WallNs() - start;
  engine.AdvanceTo(Seconds(20));
  const double fires_after = store.LoadOr("g.fires", Value(0)).NumericOr(0);
  std::printf("fires_with_strict_rule=%.0f fires_after_update=%.0f (delta %.0f) "
              "swap_cost_us=%.1f\n",
              fires_strict, fires_after, fires_after - fires_strict,
              static_cast<double>(swap_ns) / 1000.0);
  std::printf("evaluations_total=%llu errors=%llu (no checks lost across the update)\n",
              static_cast<unsigned long long>(engine.stats().evaluations),
              static_cast<unsigned long long>(engine.stats().errors));
}

void CoverageVsCost() {
  std::printf("\n# (c) incremental coverage: each added guardrail's marginal cost\n");
  std::printf("%-12s %20s\n", "monitors", "wall_ns_per_simsec");
  for (int count : {1, 2, 4, 8, 16, 32}) {
    FeatureStore store;
    PolicyRegistry registry;
    Engine engine(&store, &registry);
    for (int i = 0; i < count; ++i) {
      (void)engine.LoadSource(MakeGuardrail(IndexedName(i), 10.0));
    }
    store.Save("shared_metric", Value(5.0));
    const int64_t start = WallNs();
    engine.AdvanceTo(Seconds(30));
    const int64_t elapsed = WallNs() - start;
    std::printf("%-12d %20lld\n", count, static_cast<long long>(elapsed / 30));
  }
}

int Main() {
  Logger::Global().set_level(LogLevel::kOff);
  std::printf("# E3: incremental deployment and runtime guardrail updates\n");
  HotLoadCost();
  RuntimeUpdateTakesEffectNextCheck();
  CoverageVsCost();
  return 0;
}

}  // namespace
}  // namespace osguard

int main() { return osguard::Main(); }
