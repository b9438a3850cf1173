// Extension 7: the guardrail supervisor under oscillation, fault storms,
// and staged deployment.
//
// Four scenarios:
//   1. The E2 oscillating guardrail pair (shrink-on-pressure vs.
//      grow-on-latency), undamped, with and without supervision: the flap
//      detector quarantines the oscillators and the trip rate collapses,
//      without touching the cooldown/hysteresis knobs E2 sweeps.
//   2. An ext6-style storm: a chaos burst plan on vm.budget_exhaust (8% duty
//      cycle) aborts every supervised eval inside the storm windows. The
//      breaker quarantines during each burst and probes its way back to
//      closed between bursts.
//   3. A probation deploy whose new version blows its step budget: the
//      supervisor quarantines it inside the probation window and the engine
//      rolls back to the bit-identical pre-deploy program.
//   4. Supervision overhead: per-eval cost of a supervised-but-untripped
//      monitor vs. the identical unsupervised monitor (batched samples,
//      mean + p99). Target: p99 within 5% of the unsupervised hot path.
//
// Usage: ext7_supervisor [--long]

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/timing.h"
#include "src/chaos/chaos.h"
#include "src/runtime/engine.h"
#include "src/support/logging.h"

namespace osguard {
namespace {

// --- Scenario 1: the E2 oscillating pair ---

// System model from bench/ext2_feedback_loops.cc: a bigger page cache lowers
// I/O latency but raises memory pressure; the two guardrails fight around
// the crossover point.
void UpdateSystem(FeatureStore& store) {
  const double cache_gb = store.LoadOr("cache_gb", Value(4.0)).NumericOr(4.0);
  store.Save("mem_pressure", Value(0.10 * cache_gb));
  store.Save("io_latency_ms", Value(12.0 / (cache_gb + 1.0)));
}

struct OscillationResult {
  double trips_per_min = 0;
  uint64_t quarantines = 0;
  uint64_t flap_events = 0;
};

OscillationResult RunOscillation(bool supervised, Duration total) {
  FeatureStore store;
  PolicyRegistry registry;
  Engine engine(&store, &registry);
  // Undamped on purpose: no cooldown, hysteresis 1. E2 shows the damping
  // knobs; the supervisor contains the same loop without them.
  const std::string health =
      supervised ? ",\n  health: { flap_window = 60s, flap_threshold = 4, "
                   "quarantine = 1, probe_every = 10, reinstate = 4 }\n"
                 : "\n";
  (void)engine.LoadSource(
      "guardrail shrink-on-pressure {\n"
      "  trigger: { TIMER(1s, 1s) },\n"
      "  rule: { LOAD_OR(mem_pressure, 0) <= 0.55 },\n"
      "  action: { SAVE(cache_gb, LOAD_OR(cache_gb, 4) - 2); INCR(trips) }" +
      health +
      "}\n"
      "guardrail grow-on-latency {\n"
      "  trigger: { TIMER(1s, 1s) },\n"
      "  rule: { LOAD_OR(io_latency_ms, 0) <= 1.8 },\n"
      "  action: { SAVE(cache_gb, LOAD_OR(cache_gb, 4) + 2); INCR(trips) }" +
      health + "}\n");
  for (SimTime t = 0; t <= total; t += Milliseconds(500)) {
    UpdateSystem(store);
    engine.AdvanceTo(t);
  }
  OscillationResult result;
  result.trips_per_min =
      store.LoadOr("trips", Value(0)).NumericOr(0) / (ToSeconds(total) / 60.0);
  result.quarantines = engine.supervisor().stats().quarantines;
  result.flap_events = engine.supervisor().stats().flap_events;
  return result;
}

// --- Scenario 2: budget-exhaust storm, 8% duty cycle ---

struct StormResult {
  uint64_t budget_aborts = 0;
  uint64_t quarantines = 0;
  uint64_t reinstatements = 0;
  uint64_t skipped = 0;
  uint64_t evaluations = 0;
  bool closed_at_end = false;
};

StormResult RunStorm(Duration total) {
  FeatureStore store;
  PolicyRegistry registry;
  Engine engine(&store, &registry);
  ChaosEngine chaos(1729);
  engine.SetChaos(&chaos);
  // Inside each 2s burst (every 25s: an 8% duty cycle, like ext6's 8%
  // spike rate) every supervised eval is forced into a budget abort.
  (void)engine.LoadSource(R"(
    guardrail storm-watch {
      trigger: { TIMER(1s, 1s) },
      rule: { LOAD_OR(x, 0) <= 100 },
      action: { REPORT("storm-watch") },
      health: { quarantine = 1, probe_every = 4, reinstate = 1 }
    }
    chaos { site vm.budget_exhaust { mode = burst, period = 25s, burst = 2s } }
  )");
  engine.AdvanceTo(total);
  StormResult result;
  const SupervisorStats& stats = engine.supervisor().stats();
  result.budget_aborts = stats.budget_aborts;
  result.quarantines = stats.quarantines;
  result.reinstatements = stats.reinstatements;
  result.skipped = stats.skipped_evals;
  result.evaluations = engine.stats().evaluations;
  const GuardHealth* guard = engine.supervisor().Find("storm-watch");
  result.closed_at_end = guard != nullptr && guard->state == BreakerState::kClosed;
  return result;
}

// --- Scenario 3: probation deploy + rollback ---

struct ProbationResult {
  uint64_t rollbacks = 0;
  bool restored_bit_identical = false;
  uint64_t evals_after_rollback = 0;
};

ProbationResult RunProbation() {
  FeatureStore store;
  PolicyRegistry registry;
  Engine engine(&store, &registry);
  (void)engine.LoadSource(R"(
    guardrail deploy {
      trigger: { TIMER(1s, 1s) },
      rule: { LOAD_OR(x, 0) <= 100 },
      action: { REPORT("v1") },
      health: { quarantine = 3 }
    }
  )");
  engine.AdvanceTo(Seconds(5));
  const std::string v1 = engine.FindGuardrail("deploy")->rule.Disassemble();
  // v2 cannot finish an eval inside one step: it quarantines in probation
  // and the supervisor rolls the deploy back.
  (void)engine.LoadSource(R"(
    guardrail deploy {
      trigger: { TIMER(1s, 1s) },
      rule: { LOAD_OR(x, 0) <= 99 },
      action: { REPORT("v2") },
      health: { budget_steps = 1, quarantine = 2, probation = 60s }
    }
  )");
  engine.AdvanceTo(Seconds(10));
  ProbationResult result;
  result.rollbacks = engine.supervisor().stats().rollbacks;
  const CompiledGuardrail* live = engine.FindGuardrail("deploy");
  result.restored_bit_identical = live != nullptr && live->rule.Disassemble() == v1;
  const uint64_t evals_at_rollback = engine.stats().evaluations;
  engine.AdvanceTo(Seconds(20));
  result.evals_after_rollback = engine.stats().evaluations - evals_at_rollback;
  return result;
}

// --- Scenario 4: supervision overhead ---

struct OverheadResult {
  double mean_ns = 0;
  double p99_ns = 0;
};

OverheadResult RunOverhead(bool supervised, int batches) {
  FeatureStore store;
  PolicyRegistry registry;
  EngineOptions options;
  options.measure_wall_time = false;
  Engine engine(&store, &registry, nullptr, options);
  const std::string health =
      supervised ? ",\n  health: { budget_steps = 1000000, quarantine = 1000000, "
                   "flap_threshold = 1000000 }\n"
                 : "\n";
  (void)engine.LoadSource(
      "guardrail hot {\n"
      "  trigger: { TIMER(1ms, 1ms) },\n"
      "  rule: { LOAD_OR(x, 0) <= 100 },\n"
      "  action: { REPORT() }" +
      health + "}\n");
  // Warm-up second, then `batches` batches of 1000 evals (1 simulated second
  // at the 1ms timer), each timed on the host clock.
  engine.AdvanceTo(Seconds(1));
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(batches));
  for (int b = 0; b < batches; ++b) {
    const int64_t start = WallNs();
    engine.AdvanceTo(Seconds(2 + b));
    samples.push_back(static_cast<double>(WallNs() - start) / 1000.0);
  }
  OverheadResult result;
  for (const double s : samples) {
    result.mean_ns += s;
  }
  result.mean_ns /= static_cast<double>(samples.size());
  std::sort(samples.begin(), samples.end());
  result.p99_ns = samples[static_cast<size_t>(static_cast<double>(samples.size() - 1) * 0.99)];
  return result;
}

int Main(int argc, char** argv) {
  Logger::Global().set_level(LogLevel::kOff);
  const bool long_run = argc > 1 && std::string(argv[1]) == "--long";
  const Duration total = long_run ? Seconds(600) : Seconds(120);
  const int batches = long_run ? 500 : 100;

  std::printf("# Extension 7: guardrail supervisor (budgets, breaker, rollback)\n\n");

  std::printf("## E2 oscillating pair, undamped (cooldown = 0, hysteresis = 1)\n");
  std::printf("%-14s %16s %12s %12s\n", "supervisor", "trips_per_min", "quarantines",
              "flap_events");
  const OscillationResult bare = RunOscillation(false, total);
  const OscillationResult guarded = RunOscillation(true, total);
  std::printf("%-14s %16.1f %12llu %12llu\n", "off", bare.trips_per_min,
              static_cast<unsigned long long>(bare.quarantines),
              static_cast<unsigned long long>(bare.flap_events));
  std::printf("%-14s %16.1f %12llu %12llu\n", "on", guarded.trips_per_min,
              static_cast<unsigned long long>(guarded.quarantines),
              static_cast<unsigned long long>(guarded.flap_events));

  std::printf("\n## vm.budget_exhaust storm (2s bursts every 25s, 8%% duty)\n");
  const StormResult storm = RunStorm(total);
  std::printf("budget_aborts=%llu quarantines=%llu reinstatements=%llu skipped=%llu "
              "evals=%llu breaker_closed_at_end=%s\n",
              static_cast<unsigned long long>(storm.budget_aborts),
              static_cast<unsigned long long>(storm.quarantines),
              static_cast<unsigned long long>(storm.reinstatements),
              static_cast<unsigned long long>(storm.skipped),
              static_cast<unsigned long long>(storm.evaluations),
              storm.closed_at_end ? "yes" : "no");

  std::printf("\n## probation deploy of a budget-blowing v2\n");
  const ProbationResult probation = RunProbation();
  std::printf("rollbacks=%llu restored_bit_identical=%s evals_after_rollback=%llu\n",
              static_cast<unsigned long long>(probation.rollbacks),
              probation.restored_bit_identical ? "yes" : "no",
              static_cast<unsigned long long>(probation.evals_after_rollback));

  std::printf("\n## supervision overhead (untripped health block vs. none)\n");
  const OverheadResult off = RunOverhead(false, batches);
  const OverheadResult on = RunOverhead(true, batches);
  std::printf("%-14s %12s %12s\n", "supervisor", "mean_ns", "p99_ns");
  std::printf("%-14s %12.1f %12.1f\n", "off", off.mean_ns, off.p99_ns);
  std::printf("%-14s %12.1f %12.1f\n", "on", on.mean_ns, on.p99_ns);
  std::printf("overhead: mean %+.1f%%, p99 %+.1f%% (target: p99 within 5%%)\n",
              100.0 * (on.mean_ns - off.mean_ns) / off.mean_ns,
              100.0 * (on.p99_ns - off.p99_ns) / off.p99_ns);

  std::printf("\n# The flap detector contains the E2 loop without retuning damping knobs;\n"
              "# the breaker rides out storms and reinstates itself; a bad deploy rolls\n"
              "# back to the bit-identical pre-deploy program.\n");
  return 0;
}

}  // namespace
}  // namespace osguard

int main(int argc, char** argv) { return osguard::Main(argc, argv); }
