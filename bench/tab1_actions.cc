// Figure 1 (right table) reproduction: the action API A1-A4, measured.
//
// For each action, demonstrates its semantics end to end through compiled
// guardrails and reports its cost (host wall time per invocation) and its
// protective properties (idempotence for REPLACE, abuse throttling for
// RETRAIN, bounded log volume for REPORT).

#include <cstdio>
#include <memory>

#include "bench/timing.h"
#include "src/sim/kernel.h"
#include "src/sim/scheduler.h"
#include "src/support/logging.h"

namespace osguard {
namespace {

struct NamedPolicy : Policy {
  std::string policy_name;
  bool learned;
  NamedPolicy(std::string n, bool l) : policy_name(std::move(n)), learned(l) {}
  std::string name() const override { return policy_name; }
  bool is_learned() const override { return learned; }
};

void RunReport() {
  Kernel kernel;
  kernel.LoadGuardrails(R"(
    guardrail reporter {
      trigger: { TIMER(100ms, 100ms) },
      rule: { false },
      action: { REPORT("violation context", NOW(), LOAD_OR(some_metric, 0)) }
    }
  )");
  kernel.store().Save("some_metric", Value(0.42));
  const int64_t start = WallNs();
  kernel.Run(Seconds(100));  // 1000 firings
  const int64_t elapsed = WallNs() - start;
  const uint64_t reports = kernel.engine().reporter().CountOfKind(ReportKind::kActionPayload);
  std::printf("A1 REPORT        firings=%llu wall_ns_per_firing=%lld ring_retained=%zu "
              "(bounded at capacity)\n",
              static_cast<unsigned long long>(reports),
              static_cast<long long>(elapsed / static_cast<int64_t>(reports ? reports : 1)),
              kernel.engine().reporter().Records().size());
}

void RunReplace() {
  Kernel kernel;
  (void)kernel.registry().Register(std::make_shared<NamedPolicy>("learned_policy", true));
  (void)kernel.registry().Register(std::make_shared<NamedPolicy>("fallback_policy", false));
  (void)kernel.registry().BindSlot("subsys.decision", "learned_policy");
  kernel.LoadGuardrails(R"(
    guardrail fallback {
      trigger: { TIMER(1s, 1s) },
      rule: { LOAD_OR(quality, 1) >= 0.5 },
      action: { REPLACE(learned_policy, fallback_policy) }
    }
  )");
  kernel.store().Save("quality", Value(0.1));
  const int64_t start = WallNs();
  kernel.Run(Seconds(10));  // fires 10x; 9 are idempotent no-ops
  const int64_t elapsed = WallNs() - start;
  std::printf(
      "A2 REPLACE       swaps=%llu idempotent_refires=%llu active_now=%s "
      "wall_ns_per_firing=%lld\n",
      static_cast<unsigned long long>(kernel.engine().dispatcher().stats().replaces),
      static_cast<unsigned long long>(kernel.engine().dispatcher().stats().replace_noops),
      kernel.registry().Active("subsys.decision").value()->name().c_str(),
      static_cast<long long>(elapsed / 10));
}

void RunRetrain() {
  EngineOptions options;
  options.retrain.min_interval = Seconds(30);
  Kernel kernel(options);
  kernel.LoadGuardrails(R"(
    guardrail drift {
      trigger: { TIMER(1s, 1s) },
      rule: { LOAD_OR(drift_score, 0) <= 0.2 },
      action: { RETRAIN(io_model, recent_window) }
    }
  )");
  // A malicious workload keeps the drift score pinned high: the guardrail
  // fires every second for 120s, but the queue throttles to one accepted
  // request per 30s per model.
  kernel.store().Save("drift_score", Value(0.9));
  kernel.Run(Seconds(120));
  const RetrainQueueStats stats = kernel.engine().retrain_queue().stats();
  std::printf(
      "A3 RETRAIN       requests=%llu accepted=%llu throttled=%llu coalesced=%llu "
      "(abuse protection per paper3.2)\n",
      static_cast<unsigned long long>(stats.accepted + stats.throttled + stats.coalesced +
                                      stats.overflowed),
      static_cast<unsigned long long>(stats.accepted),
      static_cast<unsigned long long>(stats.throttled),
      static_cast<unsigned long long>(stats.coalesced));
}

void RunDeprioritize() {
  Kernel kernel;
  Scheduler scheduler(kernel);
  const TaskId hog = scheduler.AddTask("batch_hog", 8.0);
  const TaskId victim = scheduler.AddTask("interactive", 1.0);
  (void)kernel.registry().Register(std::make_shared<FairPickPolicy>());
  (void)kernel.registry().BindSlot("sched.pick_next", "sched_fair");
  (void)scheduler.SubmitBurst(hog, Seconds(60));
  (void)scheduler.SubmitBurst(victim, Seconds(60));
  kernel.LoadGuardrails(R"(
    guardrail squeeze {
      trigger: { TIMER(2s, 10s) },
      rule: { LOAD_OR(mem_pressure, 0) <= 0.9 },
      action: { DEPRIORITIZE({batch_hog}, {0.1}) }
    }
  )");

  scheduler.PumpFor(Seconds(4));
  kernel.Run(Seconds(2) - Milliseconds(1));
  const Duration hog_cpu_before = scheduler.GetTask(hog).value().total_cpu;
  const Duration victim_cpu_before = scheduler.GetTask(victim).value().total_cpu;
  kernel.store().Save("mem_pressure", Value(0.95));  // pressure spike
  kernel.Run(Seconds(4));
  const Duration hog_delta = scheduler.GetTask(hog).value().total_cpu - hog_cpu_before;
  const Duration victim_delta =
      scheduler.GetTask(victim).value().total_cpu - victim_cpu_before;
  std::printf(
      "A4 DEPRIORITIZE  before: hog/victim cpu share %.0f%%/%.0f%%; after demotion "
      "%.0f%%/%.0f%%\n",
      100.0 * static_cast<double>(hog_cpu_before) /
          static_cast<double>(hog_cpu_before + victim_cpu_before),
      100.0 * static_cast<double>(victim_cpu_before) /
          static_cast<double>(hog_cpu_before + victim_cpu_before),
      100.0 * static_cast<double>(hog_delta) / static_cast<double>(hog_delta + victim_delta),
      100.0 * static_cast<double>(victim_delta) /
          static_cast<double>(hog_delta + victim_delta));
}

int Main() {
  Logger::Global().set_level(LogLevel::kOff);
  std::printf("# Figure 1 (right): action API, measured\n");
  RunReport();
  RunReplace();
  RunRetrain();
  RunDeprioritize();
  return 0;
}

}  // namespace
}  // namespace osguard

int main() { return osguard::Main(); }
