// Hot-path benchmark runner with a stable JSON output schema.
//
// Runs the monitor-overhead workloads behind `ext1_monitor_overhead` (the P5
// "decision overhead" extension) and emits machine-readable results so the
// perf trajectory can be tracked across PRs in BENCH_hotpath.json.
//
// Schema (stable; additions append new metric objects, never rename):
//   {
//     "bench": "hotpath",
//     "schema_version": 1,
//     "metrics": [
//       {"name": "...", "value": <number>, "unit": "ns_per_eval" | ...},
//       ...
//     ],
//     "ns_per_eval_mean": <number>   // headline: mean over *_ns_per_eval
//   }
//
// Usage: benchjson [--strict-alloc] [--chaos] [--supervisor] [-o FILE]
//   --strict-alloc  exit(1) if the steady-state FUNCTION callout loop
//                   allocates (the zero-allocation trigger-dispatch
//                   guarantee; a heap-profile assertion, not a timer).
//   --chaos         run the ext6 fault-storm experiment instead and emit
//                   bench "chaos" (BENCH_chaos.json): guardrail trigger
//                   latency under an injected fault storm vs. idle, and the
//                   guarded vs. unguarded false-submit counts under the
//                   storm (the guarded count must stay bounded). Exits 1 if
//                   the guardrail fails to contain the storm.
//   --persist       run the E9 warm-restart experiment instead and emit
//                   bench "persist" (BENCH_persist.json): journal commit
//                   overhead per callout boundary, journal bytes per commit,
//                   recovery wall time after a mid-run crash, journal replay
//                   throughput, and a state-divergence bit comparing the
//                   recovered run against an uninterrupted one. Exits 1 if
//                   recovery diverges from the uninterrupted run (must be
//                   bit-identical) or recovery wall time exceeds the CI
//                   bound (500ms for the benchmark workload).
//   --agent         run the E11 tool-call governance experiment instead and
//                   emit bench "agent" (BENCH_agent.json): a 100-seed
//                   panic/warm-restart arm on the OnToolCall path (each
//                   restarted run must match an uninterrupted one), the
//                   scripted incident/clean trace gates (sequence kill lands
//                   within the violating callout; the clean trace trips
//                   nothing), and p50/p99 per-tool-call admission overhead
//                   governed vs ungoverned. Exits 1 if any restart or
//                   containment gate fails.
//   --governor      run the E12 overload-governor experiment instead and
//                   emit bench "governor" (BENCH_governor.json): governed vs
//                   ungoverned evaluation counts and p99 callout latency
//                   through a seeded callout storm, the ladder depth reached
//                   and recovery to full service, and callout latency per
//                   ladder rung. Exits 1 if the ladder never reaches
//                   fail-static, a critical monitor is shed, or the governed
//                   storm fails to shed work or bound p99.
//   --store         run the E14 bounded-memory store experiment instead and
//                   emit bench "store" (BENCH_store.json): >= 1M simulated
//                   agent session lifecycles through a retention-governed
//                   kernel with session-end eager reclamation, sampling the
//                   live-key count and approximate store bytes at every
//                   churn wave. Exits 1 if the steady-state key count or
//                   byte footprint is unbounded (final wave > 2x the first
//                   settled wave), any stale-generation misread occurs, or
//                   the retention-on p99 per-call cost exceeds the
//                   retention-off baseline by more than 5%.
//   --supervisor    run the ext7 supervisor experiment instead and emit
//                   bench "supervisor" (BENCH_supervisor.json): trip rate of
//                   the undamped E2 oscillating pair with and without the
//                   flap-detecting breaker, breaker recovery through a
//                   vm.budget_exhaust storm, probation auto-rollback of a
//                   budget-blowing deploy, and supervised-vs-bare per-eval
//                   overhead. Exits 1 if quarantine fails to at least halve
//                   the oscillation trip rate, the breaker fails to recover,
//                   the rollback is not bit-identical, or overhead regresses
//                   past the CI bound (p99 +25%; the design target is 5%).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <algorithm>

#include "src/actions/agent_control.h"
#include "src/agent/harness.h"
#include "src/chaos/chaos.h"
#include "src/linnos/harness.h"
#include "src/persist/persist.h"
#include "src/runtime/engine.h"
#include "src/runtime/governor/governor.h"
#include "src/sim/agent_callout.h"
#include "src/sim/kernel.h"
#include "src/support/logging.h"
#include "src/support/rng.h"
#include "src/wl/sessiongen.h"
#include "src/wl/stormgen.h"

// --- Heap profile hooks -----------------------------------------------------
// Counts every global allocation so workloads can assert "no allocations in
// the steady state". Counting is always on; it is a single relaxed atomic
// increment and does not perturb the ns-scale measurements meaningfully.

namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace osguard {
namespace {

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string MakeTimerGuardrail(int index, Duration interval) {
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

// (1) One guardrail on a 1ms TIMER whose 10s aggregate window holds 1000
// samples: the aggregate-query-dominated regime. Also reports the
// steady-state allocation count per eval (the timer path shares the
// FUNCTION path's zero-allocation dispatch claim).
void TimerHotWindow(std::vector<Metric>& metrics) {
  FeatureStore store;
  PolicyRegistry registry;
  Engine engine(&store, &registry);
  (void)engine.LoadSource(MakeTimerGuardrail(0, Milliseconds(1)));
  for (int i = 0; i < 1000; ++i) {
    store.Observe("metric0", Milliseconds(i * 60), 50.0);
  }
  const uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  const int64_t start = WallNs();
  engine.AdvanceTo(Seconds(60));
  const int64_t elapsed = WallNs() - start;
  const uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  const uint64_t evals = engine.stats().evaluations;
  const double denom = evals > 0 ? static_cast<double>(evals) : 1.0;
  metrics.push_back(Metric{"timer_hot_window_ns_per_eval",
                           static_cast<double>(elapsed) / denom, "ns_per_eval"});
  metrics.push_back(Metric{"timer_hot_window_allocs_per_eval",
                           static_cast<double>(allocs) / denom, "allocs_per_eval"});
}

// (2) 64 guardrails on 100ms TIMERs, one sample per series: the
// dispatch/VM-dominated regime.
void TimerManyMonitors(std::vector<Metric>& metrics) {
  FeatureStore store;
  PolicyRegistry registry;
  Engine engine(&store, &registry);
  std::string spec;
  constexpr int kCount = 64;
  for (int i = 0; i < kCount; ++i) {
    spec += MakeTimerGuardrail(i, Milliseconds(100));
  }
  (void)engine.LoadSource(spec);
  for (int i = 0; i < kCount; ++i) {
    store.Observe("metric" + std::to_string(i), 0, 50.0);
  }
  const uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  const int64_t start = WallNs();
  engine.AdvanceTo(Seconds(60));
  const int64_t elapsed = WallNs() - start;
  const uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  const uint64_t evals = engine.stats().evaluations;
  const double denom = evals > 0 ? static_cast<double>(evals) : 1.0;
  metrics.push_back(Metric{"timer_many_monitors_ns_per_eval",
                           static_cast<double>(elapsed) / denom, "ns_per_eval"});
  metrics.push_back(Metric{"timer_many_monitors_allocs_per_eval",
                           static_cast<double>(allocs) / denom, "allocs_per_eval"});
}

// (3) FUNCTION trigger on a hot path: 1M callouts against one hooked
// monitor. Also reports the steady-state allocation count per callout.
void FunctionCallouts(std::vector<Metric>& metrics) {
  FeatureStore store;
  PolicyRegistry registry;
  EngineOptions options;
  options.measure_wall_time = false;
  Engine engine(&store, &registry, nullptr, options);
  (void)engine.LoadSource(
      "guardrail f0 { trigger: { FUNCTION(blk_mq_submit_bio_hotpath) }, rule: { LOAD_OR(x, 0) <= 1 }, "
      "action: { REPORT() } }\n");
  constexpr int kCalls = 1000000;
  // Warm up so lazy one-time work (report ring, first-eval paths) is done.
  for (int i = 0; i < 1000; ++i) {
    engine.OnFunctionCall("blk_mq_submit_bio_hotpath", i);
  }
  const uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  const int64_t start = WallNs();
  for (int i = 0; i < kCalls; ++i) {
    engine.OnFunctionCall("blk_mq_submit_bio_hotpath", 1000 + i);
  }
  const int64_t elapsed = WallNs() - start;
  const uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  metrics.push_back(Metric{"function_callout_ns_per_eval",
                           static_cast<double>(elapsed) / kCalls, "ns_per_eval"});
  metrics.push_back(Metric{"function_callout_allocs_per_call",
                           static_cast<double>(allocs) / kCalls, "allocs_per_call"});
  // Unhooked path: the cost a kernel pays for instrumenting a function no
  // monitor watches.
  const int64_t start2 = WallNs();
  for (int i = 0; i < kCalls; ++i) {
    engine.OnFunctionCall("blk_mq_requeue_request_cold", i);
  }
  metrics.push_back(Metric{"function_callout_unhooked_ns",
                           static_cast<double>(WallNs() - start2) / kCalls, "ns_per_call"});
}

// --chaos: the ext6 fault-storm experiment in machine-readable form. Runs
// the Figure-2 drift trace twice — idle, and under the canonical
// MakeFaultStormChaosSpec storm — and reports how fast the Listing-2
// guardrail trips from fault onset (drift time when idle, t=0 under the
// storm, which is armed from the first I/O) plus the guarded vs. unguarded
// false-submit counts. Returns false if any run fails or the guardrail does
// not contain the storm.
bool RunChaosBench(std::vector<Metric>& metrics, bool& contained) {
  Figure2Options options;
  options.before_drift = Seconds(10);
  options.after_drift = Seconds(10);

  auto idle = RunFigure2Experiment(options);
  if (!idle.ok()) {
    std::fprintf(stderr, "benchjson: idle run failed: %s\n", idle.status().ToString().c_str());
    return false;
  }
  options.chaos_source = MakeFaultStormChaosSpec(1729, 0.08, 0.6);
  auto storm = RunFigure2Experiment(options);
  if (!storm.ok()) {
    std::fprintf(stderr, "benchjson: storm run failed: %s\n", storm.status().ToString().c_str());
    return false;
  }
  const Figure2Result& ri = idle.value();
  const Figure2Result& rs = storm.value();

  const double trigger_idle =
      ri.with_guardrail.guardrail_fired ? ri.with_guardrail.trigger_time_s : -1.0;
  const double trigger_storm =
      rs.with_guardrail.guardrail_fired ? rs.with_guardrail.trigger_time_s : -1.0;
  metrics.push_back(Metric{"trigger_latency_idle_s",
                           trigger_idle >= 0.0 ? trigger_idle - ri.drift_time_s : -1.0, "s"});
  metrics.push_back(Metric{"trigger_latency_storm_s", trigger_storm, "s"});
  metrics.push_back(Metric{"injected_faults_storm",
                           static_cast<double>(rs.with_guardrail.injected_faults), "count"});
  const double guarded = static_cast<double>(rs.with_guardrail.blk.false_submits);
  const double unguarded = static_cast<double>(rs.without_guardrail.blk.false_submits);
  metrics.push_back(Metric{"false_submits_guarded_storm", guarded, "count"});
  metrics.push_back(Metric{"false_submits_unguarded_storm", unguarded, "count"});
  metrics.push_back(Metric{"false_submits_guarded_idle",
                           static_cast<double>(ri.with_guardrail.blk.false_submits), "count"});
  metrics.push_back(Metric{"false_submits_unguarded_idle",
                           static_cast<double>(ri.without_guardrail.blk.false_submits), "count"});
  metrics.push_back(Metric{"containment_factor",
                           guarded > 0.0 ? unguarded / guarded : unguarded, "ratio"});
  metrics.push_back(Metric{"ml_disabled_at_end_storm",
                           rs.with_guardrail.ml_enabled_at_end ? 0.0 : 1.0, "bool"});

  // Containment: the guardrail fired under the storm and the unguarded run
  // accumulated at least twice the guarded run's false submits.
  contained = trigger_storm >= 0.0 && unguarded >= 2.0 * guarded && unguarded > guarded;
  return true;
}

// --supervisor: the ext7 supervisor experiment in machine-readable form.
// Three containment checks plus an overhead regression bound:
//   (a) the undamped E2 oscillating pair trips at most half as often once the
//       flap detector can quarantine it (with at least one quarantine);
//   (b) the breaker rides out a vm.budget_exhaust burst storm — it
//       quarantines during bursts, probes back, and is closed at the end;
//   (c) a probation deploy that blows its step budget rolls back exactly once
//       to the bit-identical pre-deploy program, which keeps evaluating;
//   (d) an untripped health block costs at most 25% extra p99 per eval over
//       the identical unsupervised monitor (CI bound; the design target is
//       5%, and the measured value is emitted for trend tracking).
bool RunSupervisorBench(std::vector<Metric>& metrics, bool& contained) {
  const Duration total = Seconds(120);

  // (a) Oscillating pair. The system model is ext2's: a bigger page cache
  // lowers I/O latency but raises memory pressure; the two guardrails fight
  // around the crossover point, undamped (no cooldown, hysteresis 1).
  double trips_per_min[2] = {0.0, 0.0};
  uint64_t osc_quarantines = 0;
  for (const bool supervised : {false, true}) {
    FeatureStore store;
    PolicyRegistry registry;
    Engine engine(&store, &registry);
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
      const double cache = store.LoadOr("cache_gb", Value(4.0)).NumericOr(4.0);
      store.Save("mem_pressure", Value(0.10 * cache));
      store.Save("io_latency_ms", Value(12.0 / (cache + 1.0)));
      engine.AdvanceTo(t);
    }
    trips_per_min[supervised ? 1 : 0] =
        store.LoadOr("trips", Value(0)).NumericOr(0) / (ToSeconds(total) / 60.0);
    if (supervised) {
      osc_quarantines = engine.supervisor().stats().quarantines;
    }
  }
  metrics.push_back(Metric{"osc_trips_per_min_bare", trips_per_min[0], "per_min"});
  metrics.push_back(Metric{"osc_trips_per_min_supervised", trips_per_min[1], "per_min"});
  metrics.push_back(
      Metric{"osc_quarantines", static_cast<double>(osc_quarantines), "count"});
  const bool osc_ok = osc_quarantines >= 1 && trips_per_min[0] > 0.0 &&
                      trips_per_min[1] <= 0.5 * trips_per_min[0];

  // (b) Budget-exhaust storm: 2s bursts every 25s (8% duty) force every
  // supervised eval inside the windows into a budget abort.
  bool storm_ok = false;
  {
    FeatureStore store;
    PolicyRegistry registry;
    Engine engine(&store, &registry);
    ChaosEngine chaos_engine(1729);
    engine.SetChaos(&chaos_engine);
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
    const SupervisorStats& stats = engine.supervisor().stats();
    const GuardHealth* guard = engine.supervisor().Find("storm-watch");
    const bool closed = guard != nullptr && guard->state == BreakerState::kClosed;
    metrics.push_back(Metric{"storm_budget_aborts",
                             static_cast<double>(stats.budget_aborts), "count"});
    metrics.push_back(
        Metric{"storm_quarantines", static_cast<double>(stats.quarantines), "count"});
    metrics.push_back(Metric{"storm_reinstatements",
                             static_cast<double>(stats.reinstatements), "count"});
    metrics.push_back(
        Metric{"storm_skipped_evals", static_cast<double>(stats.skipped_evals), "count"});
    metrics.push_back(Metric{"storm_breaker_closed_at_end", closed ? 1.0 : 0.0, "bool"});
    storm_ok = stats.quarantines >= 1 && stats.reinstatements >= 1 && closed;
  }

  // (c) Probation deploy + auto-rollback.
  bool rollback_ok = false;
  {
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
    (void)engine.LoadSource(R"(
      guardrail deploy {
        trigger: { TIMER(1s, 1s) },
        rule: { LOAD_OR(x, 0) <= 99 },
        action: { REPORT("v2") },
        health: { budget_steps = 1, quarantine = 2, probation = 60s }
      }
    )");
    engine.AdvanceTo(Seconds(10));
    const uint64_t rollbacks = engine.supervisor().stats().rollbacks;
    const CompiledGuardrail* live = engine.FindGuardrail("deploy");
    const bool identical = live != nullptr && live->rule.Disassemble() == v1;
    const uint64_t evals_at_rollback = engine.stats().evaluations;
    engine.AdvanceTo(Seconds(20));
    const uint64_t evals_after = engine.stats().evaluations - evals_at_rollback;
    metrics.push_back(
        Metric{"probation_rollbacks", static_cast<double>(rollbacks), "count"});
    metrics.push_back(
        Metric{"probation_restored_bit_identical", identical ? 1.0 : 0.0, "bool"});
    metrics.push_back(
        Metric{"probation_evals_after_rollback", static_cast<double>(evals_after), "count"});
    rollback_ok = rollbacks == 1 && identical && evals_after > 0;
  }

  // (d) Supervision overhead on an untripped monitor: batches of 1000 evals
  // (one simulated second on a 1ms timer) against the identical monitor with
  // no health block.
  double p99_us[2] = {0.0, 0.0};
  for (const bool supervised : {false, true}) {
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
    engine.AdvanceTo(Seconds(1));  // warm-up
    constexpr int kBatches = 100;
    std::vector<double> samples;
    samples.reserve(kBatches);
    for (int b = 0; b < kBatches; ++b) {
      const int64_t start = WallNs();
      engine.AdvanceTo(Seconds(2 + b));
      samples.push_back(static_cast<double>(WallNs() - start) / 1000.0);
    }
    std::sort(samples.begin(), samples.end());
    p99_us[supervised ? 1 : 0] =
        samples[static_cast<size_t>(static_cast<double>(samples.size() - 1) * 0.99)];
  }
  const double overhead_pct =
      p99_us[0] > 0.0 ? 100.0 * (p99_us[1] - p99_us[0]) / p99_us[0] : 0.0;
  metrics.push_back(Metric{"overhead_p99_us_per_kbatch_bare", p99_us[0], "us"});
  metrics.push_back(Metric{"overhead_p99_us_per_kbatch_supervised", p99_us[1], "us"});
  metrics.push_back(Metric{"overhead_p99_pct", overhead_pct, "percent"});
  const bool overhead_ok = overhead_pct <= 25.0;

  if (!osc_ok) {
    std::fprintf(stderr, "benchjson: --supervisor: quarantine failed to halve the "
                         "oscillation trip rate\n");
  }
  if (!storm_ok) {
    std::fprintf(stderr,
                 "benchjson: --supervisor: breaker did not recover from the storm\n");
  }
  if (!rollback_ok) {
    std::fprintf(stderr, "benchjson: --supervisor: probation rollback missing or not "
                         "bit-identical\n");
  }
  if (!overhead_ok) {
    std::fprintf(stderr,
                 "benchjson: --supervisor: p99 overhead %.1f%% exceeds the 25%% CI "
                 "bound (design target 5%%)\n",
                 overhead_pct);
  }
  contained = osc_ok && storm_ok && rollback_ok && overhead_ok;
  return true;
}

// --persist: the E9 warm-restart experiment in machine-readable form. Runs a
// deterministic guardrail workload with the write-ahead journal on, measures
// the per-boundary commit overhead against the identical run with
// persistence off, crashes it mid-run, and times the recovery
// (Engine::Restore + re-execution to the crash point). Self-gating: the
// recovered run's final state (store + report ring + engine image) must be
// bit-identical to the uninterrupted run, and recovery must stay under the
// CI wall-time bound.
namespace persistbench {

constexpr char kSpec[] = R"(
guardrail lat-p99 {
  trigger: { TIMER(100ms, 40ms) },
  rule: { COUNT(io.lat, 400ms) == 0 || P99(io.lat, 400ms) <= 5ms },
  action: { SAVE(lat.flag, true); REPORT("p99 high", MEAN(io.lat, 400ms)) },
  on_satisfy: { SAVE(lat.flag, false) },
  meta: { severity = warning, cooldown = 120ms, hysteresis = 2 }
}
guardrail err-watch {
  trigger: { TIMER(60ms, 30ms), ONCHANGE(err.rate) },
  rule: { LOAD_OR(err.rate, 0) <= 0.5 },
  action: { INCR(err.trips); REPORT("err rate tripped") },
  meta: { hysteresis = 1 }
}
persist { interval = 250ms, journal_budget = 65536 }
)";

constexpr Duration kStepWindow = Milliseconds(50);

struct BenchRun {
  FeatureStore store;
  PolicyRegistry registry;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<PersistManager> persist;
};

std::unique_ptr<BenchRun> Start(const std::string& dir, bool with_persist) {
  auto run = std::make_unique<BenchRun>();
  EngineOptions options;
  options.measure_wall_time = false;
  run->engine = std::make_unique<Engine>(&run->store, &run->registry, nullptr, options);
  run->store.SetWriteObserver(
      [engine = run->engine.get()](const StoreWriteInfo& info,
                                 const std::string& key) {
        engine->OnStoreWrite(info, key);
      });
  if (with_persist) {
    PersistOptions popts;
    popts.dir = dir;
    run->persist = std::make_unique<PersistManager>(popts);
    run->engine->SetPersist(run->persist.get());
  }
  if (!run->engine->LoadSource(kSpec).ok()) {
    return nullptr;
  }
  return run;
}

void Step(BenchRun& run, int step) {
  Rng rng(0x9E3779B97F4A7C15ull + static_cast<uint64_t>(step));
  const SimTime start = static_cast<SimTime>(step) * kStepWindow;
  const int observations = static_cast<int>(rng.UniformInt(1, 4));
  for (int i = 0; i < observations; ++i) {
    const SimTime t = start + rng.UniformInt(1, kStepWindow - 1);
    run.store.Observe("io.lat", t,
                      rng.Bernoulli(0.2) ? rng.Uniform(5.0e6, 2.0e7)
                                         : rng.Uniform(1.0e5, 4.0e6));
  }
  if (rng.Bernoulli(0.4)) {
    run.store.Save("err.rate", Value(rng.Uniform(0.0, 1.0)));
  }
  run.engine->AdvanceTo(start + kStepWindow);
}

std::string StateBytes(BenchRun& run) {
  Snapshot snapshot;
  snapshot.store = run.store.DumpSlots();
  snapshot.report_ring = run.engine->EncodeReportRing();
  snapshot.image = run.engine->EncodeImage();
  return EncodeSnapshot(snapshot);
}

}  // namespace persistbench

bool RunPersistBench(std::vector<Metric>& metrics, bool& persist_ok) {
  namespace fs = std::filesystem;
  using persistbench::Start;
  using persistbench::Step;
  constexpr int kTotalSteps = 2000;
  // Crash mid-way between snapshots (the 250ms interval snapshots every 5th
  // 50ms step) so recovery exercises a real journal-suffix replay rather than
  // landing exactly on a snapshot boundary with nothing to replay.
  constexpr int kCrashStep = 1503;
  constexpr double kRecoveryBoundMs = 500.0;

  std::error_code ec;
  const fs::path root = fs::temp_directory_path(ec) / "osguard-benchjson-persist";
  fs::remove_all(root, ec);
  fs::create_directories(root, ec);
  if (ec) {
    std::fprintf(stderr, "benchjson: --persist: cannot create %s\n", root.c_str());
    return false;
  }

  // Baseline: identical workload with persistence off.
  const int64_t bare_start = WallNs();
  auto bare = Start((root / "bare").string(), /*with_persist=*/false);
  if (bare == nullptr) {
    return false;
  }
  for (int step = 0; step < kTotalSteps; ++step) {
    Step(*bare, step);
  }
  const double bare_ns = static_cast<double>(WallNs() - bare_start);

  // Journaled reference run, uninterrupted.
  const fs::path ref_dir = root / "ref";
  fs::create_directories(ref_dir, ec);
  const int64_t ref_start = WallNs();
  auto reference = Start(ref_dir.string(), /*with_persist=*/true);
  if (reference == nullptr || !reference->persist->Open().ok()) {
    return false;
  }
  for (int step = 0; step < kTotalSteps; ++step) {
    Step(*reference, step);
  }
  const double ref_ns = static_cast<double>(WallNs() - ref_start);
  const PersistStats ref_stats = reference->persist->stats();
  const std::string want = persistbench::StateBytes(*reference);

  // Crash run: same workload into its own directory, abandoned mid-run.
  const fs::path crash_dir = root / "crash";
  fs::create_directories(crash_dir, ec);
  std::vector<uint64_t> seq_after(kCrashStep, 0);
  {
    auto doomed = Start(crash_dir.string(), /*with_persist=*/true);
    if (doomed == nullptr || !doomed->persist->Open().ok()) {
      return false;
    }
    for (int step = 0; step < kCrashStep; ++step) {
      Step(*doomed, step);
      seq_after[static_cast<size_t>(step)] = doomed->persist->last_committed_seq();
    }
  }

  // Recovery: snapshot + journal-suffix replay, then re-execution to the end.
  auto recovered = Start(crash_dir.string(), /*with_persist=*/true);
  if (recovered == nullptr) {
    return false;
  }
  const int64_t recover_start = WallNs();
  auto info = recovered->engine->Restore(*recovered->persist);
  const double recover_ns = static_cast<double>(WallNs() - recover_start);
  if (!info.ok()) {
    std::fprintf(stderr, "benchjson: --persist: recovery failed: %s\n",
                 info.status().ToString().c_str());
    return false;
  }
  int resume = 0;
  if (info.value().last_seq != 0) {
    resume = -1;
    for (int step = 0; step < kCrashStep; ++step) {
      if (seq_after[static_cast<size_t>(step)] == info.value().last_seq) {
        resume = step + 1;
        break;
      }
    }
    if (resume == -1) {
      std::fprintf(stderr, "benchjson: --persist: recovered seq %llu matches no "
                           "commit boundary\n",
                   static_cast<unsigned long long>(info.value().last_seq));
      persist_ok = false;
      resume = 0;
    }
  }
  for (int step = resume; step < kTotalSteps; ++step) {
    Step(*recovered, step);
  }
  const bool identical = persistbench::StateBytes(*recovered) == want;

  const double commits = std::max<double>(1.0, static_cast<double>(ref_stats.frames_committed));
  metrics.push_back({"persist_commit_overhead_ns_per_boundary",
                     (ref_ns - bare_ns) / commits, "ns_per_commit"});
  metrics.push_back({"persist_journal_bytes_per_commit",
                     static_cast<double>(ref_stats.bytes_appended) / commits, "bytes"});
  metrics.push_back({"persist_frames_committed", static_cast<double>(ref_stats.frames_committed),
                     "count"});
  metrics.push_back({"persist_snapshots_written",
                     static_cast<double>(ref_stats.snapshots_written), "count"});
  metrics.push_back({"persist_recovery_ms", recover_ns / 1e6, "ms"});
  metrics.push_back({"persist_frames_replayed",
                     static_cast<double>(info.value().frames_replayed), "count"});
  const double recover_s = std::max(recover_ns / 1e9, 1e-9);
  metrics.push_back({"persist_replay_frames_per_sec",
                     static_cast<double>(info.value().frames_replayed) / recover_s,
                     "frames_per_sec"});
  metrics.push_back({"persist_state_divergence", identical ? 0.0 : 1.0, "bool"});

  if (!identical) {
    std::fprintf(stderr,
                 "benchjson: --persist: recovered run diverged from the uninterrupted "
                 "run\n");
    persist_ok = false;
  }
  if (recover_ns / 1e6 > kRecoveryBoundMs) {
    std::fprintf(stderr, "benchjson: --persist: recovery took %.1fms (bound %.0fms)\n",
                 recover_ns / 1e6, kRecoveryBoundMs);
    persist_ok = false;
  }
  fs::remove_all(root, ec);
  return true;
}

// --- --agent: the E11 tool-call governance experiment -----------------------
// Three gates mirroring docs/AGENT.md and the `ctest -L agent` battery, sized
// for a CI release job:
//   (a) 100-seed warm-restart arm — on generated bursty multi-session
//       workloads under the shipped governance specs, the panic+recover+
//       resume state must be bit-identical to an uninterrupted run of the
//       same seed;
//   (b) scripted incident / clean traces — the sequence family must land its
//       kill inside the violating callout (so the second net-after-secret
//       send is already rejected and the taint counter stays at 1), and the
//       clean trace must produce zero reports and write no control keys;
//   (c) per-tool-call admission overhead — p50/p99 ns per OnToolCall with
//       the governance specs loaded vs with no guardrails at all.

namespace agentbench {

std::string GovernanceSpecSource() {
  std::ifstream in(std::string(OSGUARD_SPECS_DIR) + "/agent_governance.osg");
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

SessionWorkloadOptions WorkloadFor(uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  SessionWorkloadOptions options;
  options.duration = Milliseconds(static_cast<int64_t>(rng.UniformInt(100, 250)));
  options.sessions_per_sec = rng.Uniform(40.0, 100.0);
  options.mean_bursts = rng.Uniform(1.5, 4.0);
  options.burst_shape = rng.Uniform(1.1, 2.0);
  options.max_burst_calls = 64;
  options.mean_intra_gap = Milliseconds(static_cast<int64_t>(rng.UniformInt(2, 10)));
  options.mean_think = Milliseconds(static_cast<int64_t>(rng.UniformInt(50, 200)));
  options.net_fraction = rng.Uniform(0.15, 0.4);
  options.exec_fraction = rng.Uniform(0.02, 0.08);
  options.secret_fraction = rng.Uniform(0.02, 0.1);
  return options;
}

std::string StateBytes(Kernel& kernel) {
  Snapshot snapshot;
  snapshot.store = kernel.store().DumpSlots();
  snapshot.report_ring = kernel.engine().EncodeReportRing();
  snapshot.image = kernel.engine().EncodeImage();
  return EncodeSnapshot(snapshot);
}

std::unique_ptr<Kernel> MakeKernel(const std::string& spec) {
  EngineOptions options;
  options.measure_wall_time = false;
  auto kernel = std::make_unique<Kernel>(options);
  if (!spec.empty() && !kernel->LoadGuardrails(spec).ok()) {
    return nullptr;
  }
  return kernel;
}

}  // namespace agentbench

bool RunAgentBench(std::vector<Metric>& metrics, bool& agent_ok) {
  namespace fs = std::filesystem;
  using agentbench::MakeKernel;
  using agentbench::StateBytes;
  const std::string spec = agentbench::GovernanceSpecSource();
  if (spec.empty()) {
    std::fprintf(stderr, "benchjson: --agent: cannot read agent_governance.osg\n");
    return false;
  }

  // (a) warm-restart arm: panic mid-trace, recover, resume; compare against
  // an uninterrupted journaled run of the same seed.
  constexpr uint64_t kRestartSeeds = 100;
  uint64_t restart_failures = 0;
  std::error_code ec;
  const fs::path root = fs::temp_directory_path(ec) / "osguard-benchjson-agent";
  fs::remove_all(root, ec);
  fs::create_directories(root, ec);
  if (ec) {
    std::fprintf(stderr, "benchjson: --agent: cannot create %s\n", root.c_str());
    return false;
  }
  for (uint64_t seed = 1; seed <= kRestartSeeds; ++seed) {
    const agent::Harness harness(agentbench::WorkloadFor(seed), seed);
    std::string want;
    {
      PersistOptions popts;
      popts.dir = (root / ("ref" + std::to_string(seed))).string();
      fs::create_directories(popts.dir, ec);
      PersistManager persist(popts);
      auto kernel = MakeKernel(spec);
      if (kernel == nullptr) {
        return false;
      }
      kernel->AttachPersist(&persist);
      if (!persist.Open().ok()) {
        return false;
      }
      harness.Drive(*kernel);
      want = StateBytes(*kernel);
    }
    {
      PersistOptions popts;
      popts.dir = (root / ("crash" + std::to_string(seed))).string();
      fs::create_directories(popts.dir, ec);
      PersistManager persist(popts);
      auto kernel = MakeKernel(spec);
      if (kernel == nullptr) {
        return false;
      }
      kernel->AttachPersist(&persist);
      if (!persist.Open().ok()) {
        return false;
      }
      const std::span<const agent::ToolCallEvent> events(harness.events());
      const size_t half = events.size() / 2;
      agent::ReplayTrace(*kernel, events.first(half));
      kernel->Panic();
      auto recovery = kernel->Reboot();
      if (!recovery.ok() || recovery.value().cold_start) {
        ++restart_failures;
        continue;
      }
      agent::ReplayTrace(*kernel, events, half);
      if (StateBytes(*kernel) != want) {
        ++restart_failures;
      }
    }
  }
  fs::remove_all(root, ec);

  metrics.push_back(Metric{"agent_restart_seeds",
                           static_cast<double>(kRestartSeeds), "count"});
  metrics.push_back(Metric{"agent_restart_failures",
                           static_cast<double>(restart_failures), "count"});

  // (b) scripted incident + clean traces against the shipped specs.
  const std::vector<agent::ToolCallEvent> incident = agent::MakeIncidentTrace();
  auto incident_kernel = MakeKernel(spec);
  if (incident_kernel == nullptr) {
    return false;
  }
  const agent::DriveResult incident_result =
      agent::ReplayTrace(*incident_kernel, incident);
  // Containment proof: the kill lands inside the first net-after-secret
  // callout, so the remaining sends are rejected before they can write the
  // taint counter — it must end the trace at exactly 1.
  const double taint_count =
      incident_kernel->store()
          .LoadOr(kAgentKeyTaintNetAfterSecret, Value(0.0))
          .NumericOr(0.0);
  const auto& reporter = incident_kernel->engine().reporter();
  const bool families_tripped =
      reporter.CountFor("agent-global-rate") >= 1 &&
      reporter.CountFor("agent-session-rate") >= 1 &&
      reporter.CountFor("agent-exec-allowlist") >= 1 &&
      reporter.CountFor("agent-secret-flow") >= 1;
  const bool seq_contained = taint_count == 1.0 && incident_result.killed == 2;
  const bool incident_ok = families_tripped && seq_contained &&
                           incident_result.denied == 2 &&
                           incident_result.throttled > 0;

  const std::vector<agent::ToolCallEvent> clean = agent::MakeCleanTrace();
  auto clean_kernel = MakeKernel(spec);
  if (clean_kernel == nullptr) {
    return false;
  }
  const agent::DriveResult clean_result = agent::ReplayTrace(*clean_kernel, clean);
  const bool clean_ok =
      clean_result.allowed == clean.size() &&
      clean_kernel->engine().reporter().total_reports() == 0 &&
      !clean_kernel->store().Contains(kAgentCtlThrottleSession) &&
      !clean_kernel->store().Contains(kAgentCtlKillSession);

  metrics.push_back(Metric{"agent_incident_events",
                           static_cast<double>(incident.size()), "count"});
  metrics.push_back(Metric{"agent_incident_throttled",
                           static_cast<double>(incident_result.throttled), "count"});
  metrics.push_back(Metric{"agent_incident_denied",
                           static_cast<double>(incident_result.denied), "count"});
  metrics.push_back(Metric{"agent_incident_killed",
                           static_cast<double>(incident_result.killed), "count"});
  metrics.push_back(
      Metric{"agent_seq_trip_within_one_callout", seq_contained ? 1.0 : 0.0, "bool"});
  metrics.push_back(Metric{"agent_clean_events",
                           static_cast<double>(clean.size()), "count"});
  metrics.push_back(
      Metric{"agent_clean_false_trips",
             static_cast<double>(clean_kernel->engine().reporter().total_reports()),
             "count"});

  // (c) per-tool-call overhead, governed vs ungoverned.
  const agent::Harness perf_harness(
      [] {
        SessionWorkloadOptions options;
        options.duration = Seconds(2);
        options.sessions_per_sec = 120.0;
        options.secret_fraction = 0.05;
        return options;
      }(),
      /*seed=*/424242);
  double p50_ns[2] = {0.0, 0.0};
  double p99_ns[2] = {0.0, 0.0};
  double calls_per_sec[2] = {0.0, 0.0};
  for (const bool governed : {false, true}) {
    auto kernel = MakeKernel(governed ? spec : std::string());
    if (kernel == nullptr) {
      return false;
    }
    std::vector<double> samples;
    samples.reserve(perf_harness.events().size());
    double total_ns = 0.0;
    for (const agent::ToolCallEvent& ev : perf_harness.events()) {
      kernel->Run(ev.at);
      const int64_t start = WallNs();
      (void)kernel->OnToolCall(ev);
      const double ns = static_cast<double>(WallNs() - start);
      samples.push_back(ns);
      total_ns += ns;
    }
    std::sort(samples.begin(), samples.end());
    const size_t last = samples.size() - 1;
    p50_ns[governed ? 1 : 0] = samples[last / 2];
    p99_ns[governed ? 1 : 0] =
        samples[static_cast<size_t>(static_cast<double>(last) * 0.99)];
    calls_per_sec[governed ? 1 : 0] =
        total_ns > 0.0 ? static_cast<double>(samples.size()) * 1e9 / total_ns : 0.0;
  }
  metrics.push_back(Metric{"agent_perf_tool_calls",
                           static_cast<double>(perf_harness.events().size()), "count"});
  metrics.push_back(Metric{"agent_ungoverned_p50_ns", p50_ns[0], "ns"});
  metrics.push_back(Metric{"agent_ungoverned_p99_ns", p99_ns[0], "ns"});
  metrics.push_back(Metric{"agent_governed_p50_ns", p50_ns[1], "ns"});
  metrics.push_back(Metric{"agent_governed_p99_ns", p99_ns[1], "ns"});
  metrics.push_back(Metric{"agent_overhead_p99_ns", p99_ns[1] - p99_ns[0], "ns"});
  metrics.push_back(
      Metric{"agent_tool_calls_per_sec_governed", calls_per_sec[1], "per_sec"});

  agent_ok = true;
  if (restart_failures > 0) {
    std::fprintf(stderr,
                 "benchjson: --agent: %llu/%llu warm restarts diverged from the "
                 "uninterrupted run\n",
                 static_cast<unsigned long long>(restart_failures),
                 static_cast<unsigned long long>(kRestartSeeds));
    agent_ok = false;
  }
  if (!incident_ok) {
    std::fprintf(stderr,
                 "benchjson: --agent: incident trace missed a guardrail family "
                 "or the sequence kill escaped its callout\n");
    agent_ok = false;
  }
  if (!clean_ok) {
    std::fprintf(stderr, "benchjson: --agent: clean trace tripped a guardrail\n");
    agent_ok = false;
  }
  return true;
}

// --- E12: overload governor ---------------------------------------------------

namespace govbench {

// Eight monitors across the three criticality tiers so shedding is visible.
constexpr char kStormSpec[] = R"(
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

EngineOptions GovernedOptions(bool governed) {
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
  uint64_t callouts = 0;
  uint64_t evals = 0;
  double p99_ns = 0.0;
  GovernorStats gov;
  GovernorMode deepest = GovernorMode::kFull;
  GovernorMode final_mode = GovernorMode::kFull;
  // Per-ladder-mode callout latency (the per-criticality-tier shed report:
  // each deeper mode sheds one more criticality tier). Indexed by
  // GovernorMode; count 0 when the storm never reached that rung.
  struct ModeLatency {
    uint64_t count = 0;
    double p50_ns = 0.0;
    double p99_ns = 0.0;
  };
  ModeLatency mode_latency[4];
};

StormRun DriveStorm(bool governed, uint64_t seed) {
  Kernel kernel(GovernedOptions(governed));
  (void)kernel.LoadGuardrails(kStormSpec);
  std::vector<double> samples;
  std::vector<double> mode_samples[4];
  StormRun run;
  for (const StormEvent& event : BenchStorm(seed)) {
    kernel.Run(event.at);
    kernel.store().Save("sys.pressure",
                        Value(static_cast<int64_t>(event.storm ? 80 : 10)));
    const int64_t start = WallNs();
    kernel.Callout("hot_path");
    const double ns = static_cast<double>(WallNs() - start);
    samples.push_back(ns);
    const GovernorMode mode = kernel.engine().governor().mode();
    mode_samples[static_cast<int>(mode)].push_back(ns);
    run.deepest = std::max(run.deepest, mode);
    ++run.callouts;
  }
  std::sort(samples.begin(), samples.end());
  run.p99_ns = samples[static_cast<size_t>(
      static_cast<double>(samples.size() - 1) * 0.99)];
  for (int m = 0; m < 4; ++m) {
    std::vector<double>& bucket = mode_samples[m];
    if (bucket.empty()) {
      continue;
    }
    std::sort(bucket.begin(), bucket.end());
    StormRun::ModeLatency& lat = run.mode_latency[m];
    lat.count = bucket.size();
    lat.p50_ns = bucket[bucket.size() / 2];
    lat.p99_ns = bucket[static_cast<size_t>(
        static_cast<double>(bucket.size() - 1) * 0.99)];
  }
  run.evals = kernel.engine().stats().evaluations;
  run.gov = kernel.engine().governor().stats();
  run.final_mode = kernel.engine().governor().mode();
  return run;
}

}  // namespace govbench

bool RunGovernorBench(std::vector<Metric>& metrics, bool& governor_ok) {
  using govbench::DriveStorm;
  using govbench::StormRun;

  // (a) governed vs ungoverned through the same seeded storm.
  const StormRun ungoverned = DriveStorm(false, 42);
  const StormRun governed = DriveStorm(true, 42);
  metrics.push_back(Metric{"governor_storm_callouts",
                           static_cast<double>(governed.callouts), "count"});
  metrics.push_back(Metric{"governor_ungoverned_evals",
                           static_cast<double>(ungoverned.evals), "count"});
  metrics.push_back(Metric{"governor_governed_evals",
                           static_cast<double>(governed.evals), "count"});
  metrics.push_back(Metric{"governor_ungoverned_p99_ns", ungoverned.p99_ns, "ns"});
  metrics.push_back(Metric{"governor_governed_p99_ns", governed.p99_ns, "ns"});
  metrics.push_back(Metric{"governor_deepest_mode",
                           static_cast<double>(governed.deepest), "mode"});
  metrics.push_back(Metric{"governor_final_mode",
                           static_cast<double>(governed.final_mode), "mode"});
  metrics.push_back(Metric{"governor_sheds_besteffort",
                           static_cast<double>(governed.gov.sheds_besteffort), "count"});
  metrics.push_back(Metric{"governor_sheds_standard",
                           static_cast<double>(governed.gov.sheds_standard), "count"});
  metrics.push_back(Metric{"governor_critical_sheds",
                           static_cast<double>(governed.gov.critical_sheds), "count"});
  metrics.push_back(Metric{"governor_static_applies",
                           static_cast<double>(governed.gov.static_applies), "count"});
  metrics.push_back(Metric{"governor_transitions",
                           static_cast<double>(governed.gov.transitions), "count"});
  // Per-criticality-tier shed latency: callout cost at each ladder rung
  // (full service, besteffort sampled, standard shed, fail-static).
  // Reporting only — no gate; the rungs a short storm never visits emit 0.
  static constexpr const char* kModeTag[] = {"full", "sampled", "critical_only",
                                             "fail_static"};
  for (int m = 0; m < 4; ++m) {
    const StormRun::ModeLatency& lat = governed.mode_latency[m];
    metrics.push_back(Metric{std::string("governor_tier_") + kModeTag[m] +
                                 "_callouts",
                             static_cast<double>(lat.count), "count"});
    metrics.push_back(Metric{std::string("governor_tier_") + kModeTag[m] +
                                 "_p50_ns",
                             lat.p50_ns, "ns"});
    metrics.push_back(Metric{std::string("governor_tier_") + kModeTag[m] +
                                 "_p99_ns",
                             lat.p99_ns, "ns"});
  }

  // Gates. The storm run is fully deterministic (sim-time signals), so the
  // ladder-depth and shed-count gates are exact; the p99 comparison is the
  // only wall-clock gate and holds with a ~4x work margin.
  governor_ok = true;
  if (governed.deepest != GovernorMode::kFailStatic ||
      governed.final_mode != GovernorMode::kFull) {
    std::fprintf(stderr,
                 "benchjson: --governor: ladder depth %d / final %d (expected "
                 "fail-static reached, full restored)\n",
                 static_cast<int>(governed.deepest),
                 static_cast<int>(governed.final_mode));
    governor_ok = false;
  }
  if (governed.gov.critical_sheds != 0 || governed.gov.static_applies == 0) {
    std::fprintf(stderr,
                 "benchjson: --governor: critical monitor shed or no "
                 "fail-static default pinned\n");
    governor_ok = false;
  }
  if (governed.evals >= ungoverned.evals) {
    std::fprintf(stderr, "benchjson: --governor: governed storm shed no work\n");
    governor_ok = false;
  }
  if (governed.p99_ns > ungoverned.p99_ns) {
    std::fprintf(stderr,
                 "benchjson: --governor: governed p99 %.0fns exceeds "
                 "ungoverned %.0fns\n",
                 governed.p99_ns, ungoverned.p99_ns);
    governor_ok = false;
  }
  return true;
}


// --- E14: bounded-memory store under million-session churn ------------------

namespace storebench {

constexpr char kRetentionSpec[] = R"(
  retention {
    scan_chunk = 256
    namespace "agent.s" { max_keys = 60000, idle_ttl = 5s }
  }
)";

SessionWorkloadOptions ChurnOptions() {
  SessionWorkloadOptions options;
  options.duration = Seconds(2);
  options.sessions_per_sec = 5000.0;   // ~10k sessions per wave
  options.max_sessions = 100000;
  options.mean_bursts = 1.0;
  options.burst_scale = 1.0;
  options.burst_shape = 3.0;           // light tail: ~1-2 calls per session
  options.max_burst_calls = 8;
  return options;
}

struct WaveSample {
  uint64_t live_keys = 0;
  uint64_t store_bytes = 0;
};

// The settling point: by this wave every bounded structure has filled — the
// global agent.calls.stream series caps at 65536 samples around wave 5 —
// so later growth is a genuine leak, not a buffer reaching its bound.
constexpr uint64_t kSettleWave = 20;

struct ChurnResult {
  uint64_t sessions = 0;
  uint64_t calls = 0;
  uint64_t stale_hits = 0;
  uint64_t reclaimed = 0;       // retention stats: idle + quota + eager
  WaveSample settled;           // after kSettleWave (or the last wave if fewer)
  WaveSample peak;              // max across waves
  WaveSample final_wave;        // after the last wave
  double p99_call_ns = 0.0;     // per-OnToolCall latency over the timed waves
};

// Drives `waves` churn waves through one kernel. Session ids are offset per
// wave so every wave models NEW sessions — the million-lifecycle workload —
// and the per-wave time offset keeps simulated time monotone.
ChurnResult DriveChurn(bool retention, uint64_t waves, uint64_t seed) {
  Kernel kernel;
  if (retention) {
    (void)kernel.LoadGuardrails(kRetentionSpec);
  }
  const SessionChurnTrace trace =
      SessionCallGenerator(ChurnOptions(), seed).GenerateChurn();
  ChurnResult result;
  std::vector<double> samples;
  samples.reserve(trace.calls.size() * waves);
  for (uint64_t wave = 0; wave < waves; ++wave) {
    const uint64_t id_offset = wave * 10'000'000ull;
    const SimTime time_offset = static_cast<SimTime>(wave) * Seconds(3);
    size_t end_cursor = 0;
    for (const agent::ToolCallEvent& call : trace.calls) {
      while (end_cursor < trace.ends.size() &&
             trace.ends[end_cursor].at <= call.at) {
        kernel.OnSessionEnd(trace.ends[end_cursor].session + id_offset);
        ++end_cursor;
      }
      agent::ToolCallEvent ev = call;
      ev.at += time_offset;
      ev.session += id_offset;
      kernel.Run(ev.at);
      const int64_t start = WallNs();
      kernel.OnToolCall(ev);
      samples.push_back(static_cast<double>(WallNs() - start));
    }
    for (; end_cursor < trace.ends.size(); ++end_cursor) {
      kernel.OnSessionEnd(trace.ends[end_cursor].session + id_offset);
    }
    result.sessions += trace.ends.size();
    result.calls += trace.calls.size();
    const WaveSample sample{kernel.store().live_key_count(),
                            kernel.store().approx_bytes()};
    if (wave == std::min(kSettleWave, waves - 1)) {
      result.settled = sample;
    }
    result.peak.live_keys = std::max(result.peak.live_keys, sample.live_keys);
    result.peak.store_bytes = std::max(result.peak.store_bytes, sample.store_bytes);
    result.final_wave = sample;
  }
  result.stale_hits = kernel.store().stale_hits();
  const RetentionStats& rstats = kernel.engine().retention().stats();
  result.reclaimed = rstats.reclaimed_idle + rstats.reclaimed_quota;
  std::sort(samples.begin(), samples.end());
  if (!samples.empty()) {
    result.p99_call_ns = samples[static_cast<size_t>(
        static_cast<double>(samples.size() - 1) * 0.99)];
  }
  return result;
}

}  // namespace storebench

bool RunStoreBench(std::vector<Metric>& metrics, bool& store_ok) {
  using storebench::ChurnResult;
  using storebench::DriveChurn;

  // Enough waves that total session lifecycles cross the 1M gate.
  constexpr uint64_t kWaves = 110;
  const ChurnResult governed = DriveChurn(true, kWaves, 0xE14);
  // Baseline: same workload, no retention block — the off==absent engine.
  // Fewer waves keep the unbounded run affordable; p99 per call is
  // wave-count independent.
  const ChurnResult baseline = DriveChurn(false, 10, 0xE14);

  metrics.push_back(Metric{"store_sessions",
                           static_cast<double>(governed.sessions), "count"});
  metrics.push_back(Metric{"store_calls", static_cast<double>(governed.calls),
                           "count"});
  metrics.push_back(Metric{"store_reclaimed",
                           static_cast<double>(governed.reclaimed), "count"});
  metrics.push_back(Metric{"store_stale_generation_hits",
                           static_cast<double>(governed.stale_hits), "count"});
  metrics.push_back(Metric{"store_settled_live_keys",
                           static_cast<double>(governed.settled.live_keys), "count"});
  metrics.push_back(Metric{"store_peak_live_keys",
                           static_cast<double>(governed.peak.live_keys), "count"});
  metrics.push_back(Metric{"store_final_live_keys",
                           static_cast<double>(governed.final_wave.live_keys),
                           "count"});
  metrics.push_back(Metric{"store_settled_bytes",
                           static_cast<double>(governed.settled.store_bytes),
                           "bytes"});
  metrics.push_back(Metric{"store_peak_bytes",
                           static_cast<double>(governed.peak.store_bytes), "bytes"});
  metrics.push_back(Metric{"store_final_bytes",
                           static_cast<double>(governed.final_wave.store_bytes),
                           "bytes"});
  metrics.push_back(Metric{"store_governed_p99_call_ns", governed.p99_call_ns,
                           "ns"});
  metrics.push_back(Metric{"store_baseline_p99_call_ns", baseline.p99_call_ns,
                           "ns"});
  metrics.push_back(Metric{"store_baseline_final_live_keys",
                           static_cast<double>(baseline.final_wave.live_keys),
                           "count"});

  store_ok = true;
  if (governed.sessions < 1000000) {
    std::fprintf(stderr,
                 "benchjson: --store: only %llu session lifecycles (need >= 1M)\n",
                 static_cast<unsigned long long>(governed.sessions));
    store_ok = false;
  }
  // Boundedness: after 100+ waves of brand-new sessions the footprint must
  // sit within 2x of the settling point (wave 20, once every capped series
  // has filled). An unbounded store grows ~linearly in waves (the
  // retention-off baseline demonstrates it).
  if (governed.final_wave.live_keys > 2 * governed.settled.live_keys ||
      governed.peak.live_keys > 2 * governed.settled.live_keys) {
    std::fprintf(stderr,
                 "benchjson: --store: live keys unbounded (settled %llu, peak "
                 "%llu, final %llu)\n",
                 static_cast<unsigned long long>(governed.settled.live_keys),
                 static_cast<unsigned long long>(governed.peak.live_keys),
                 static_cast<unsigned long long>(governed.final_wave.live_keys));
    store_ok = false;
  }
  if (governed.final_wave.store_bytes > 2 * governed.settled.store_bytes ||
      governed.peak.store_bytes > 2 * governed.settled.store_bytes) {
    std::fprintf(stderr,
                 "benchjson: --store: store bytes unbounded (settled %llu, peak "
                 "%llu, final %llu)\n",
                 static_cast<unsigned long long>(governed.settled.store_bytes),
                 static_cast<unsigned long long>(governed.peak.store_bytes),
                 static_cast<unsigned long long>(governed.final_wave.store_bytes));
    store_ok = false;
  }
  if (governed.stale_hits != 0) {
    std::fprintf(stderr,
                 "benchjson: --store: %llu stale-generation misreads (expected 0)\n",
                 static_cast<unsigned long long>(governed.stale_hits));
    store_ok = false;
  }
  if (governed.p99_call_ns > baseline.p99_call_ns * 1.05) {
    std::fprintf(stderr,
                 "benchjson: --store: governed p99 %.0fns exceeds retention-off "
                 "baseline %.0fns by more than 5%%\n",
                 governed.p99_call_ns, baseline.p99_call_ns);
    store_ok = false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Logger::Global().set_level(LogLevel::kOff);
  bool strict_alloc = false;
  bool chaos = false;
  bool supervisor = false;
  bool persist = false;
  bool agent = false;
  bool governor = false;
  bool store = false;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--strict-alloc") == 0) {
      strict_alloc = true;
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos = true;
    } else if (std::strcmp(argv[i], "--supervisor") == 0) {
      supervisor = true;
    } else if (std::strcmp(argv[i], "--persist") == 0) {
      persist = true;
    } else if (std::strcmp(argv[i], "--agent") == 0) {
      agent = true;
    } else if (std::strcmp(argv[i], "--governor") == 0) {
      governor = true;
    } else if (std::strcmp(argv[i], "--store") == 0) {
      store = true;
    } else if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: benchjson [--strict-alloc] [--chaos] [--supervisor] "
                   "[--persist] [--agent] [--governor] "
                   "[--store] [-o FILE]\n");
      return 2;
    }
  }

  std::vector<Metric> metrics;
  bool chaos_contained = true;
  bool supervisor_contained = true;
  bool persist_ok = true;
  bool agent_ok = true;
  bool governor_ok = true;
  bool store_ok = true;
  if (chaos) {
    if (!RunChaosBench(metrics, chaos_contained)) {
      return 1;
    }
  } else if (supervisor) {
    if (!RunSupervisorBench(metrics, supervisor_contained)) {
      return 1;
    }
  } else if (persist) {
    if (!RunPersistBench(metrics, persist_ok)) {
      return 1;
    }
  } else if (agent) {
    if (!RunAgentBench(metrics, agent_ok)) {
      return 1;
    }
  } else if (governor) {
    if (!RunGovernorBench(metrics, governor_ok)) {
      return 1;
    }
  } else if (store) {
    if (!RunStoreBench(metrics, store_ok)) {
      return 1;
    }
  } else {
    TimerHotWindow(metrics);
    TimerManyMonitors(metrics);
    FunctionCallouts(metrics);
  }

  double eval_sum = 0.0;
  int eval_count = 0;
  for (const Metric& m : metrics) {
    if (m.unit == "ns_per_eval") {
      eval_sum += m.value;
      ++eval_count;
    }
  }
  const double mean = eval_count > 0 ? eval_sum / eval_count : 0.0;

  const char* bench_name =
      chaos ? "chaos"
            : (supervisor ? "supervisor"
                          : (persist ? "persist"
                                     : (agent ? "agent"
                                              : (governor ? "governor"
                                                          : (store ? "store" : "hotpath")))));
  std::string json = std::string("{\n  \"bench\": \"") + bench_name +
                     "\",\n  \"schema_version\": 1,\n  \"metrics\": [\n";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "    {\"name\": \"%s\", \"value\": %.2f, \"unit\": \"%s\"}%s\n",
                  metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str(),
                  i + 1 < metrics.size() ? "," : "");
    json += line;
  }
  char tail[96];
  if (chaos) {
    std::snprintf(tail, sizeof(tail), "  ],\n  \"storm_contained\": %s\n}\n",
                  chaos_contained ? "true" : "false");
  } else if (supervisor) {
    std::snprintf(tail, sizeof(tail), "  ],\n  \"supervisor_contained\": %s\n}\n",
                  supervisor_contained ? "true" : "false");
  } else if (persist) {
    std::snprintf(tail, sizeof(tail), "  ],\n  \"persist_ok\": %s\n}\n",
                  persist_ok ? "true" : "false");
  } else if (agent) {
    std::snprintf(tail, sizeof(tail), "  ],\n  \"agent_ok\": %s\n}\n",
                  agent_ok ? "true" : "false");
  } else if (governor) {
    std::snprintf(tail, sizeof(tail), "  ],\n  \"governor_ok\": %s\n}\n",
                  governor_ok ? "true" : "false");
  } else if (store) {
    std::snprintf(tail, sizeof(tail), "  ],\n  \"store_ok\": %s\n}\n",
                  store_ok ? "true" : "false");
  } else {
    std::snprintf(tail, sizeof(tail), "  ],\n  \"ns_per_eval_mean\": %.2f\n}\n", mean);
  }
  json += tail;

  if (out_path != nullptr) {
    std::FILE* f = std::fopen(out_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "benchjson: cannot open %s\n", out_path);
      return 2;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }
  std::fputs(json.c_str(), stdout);

  if (chaos && !chaos_contained) {
    std::fprintf(stderr,
                 "benchjson: FAIL --chaos: guardrail did not contain the fault storm\n");
    return 1;
  }
  if (supervisor && !supervisor_contained) {
    std::fprintf(stderr,
                 "benchjson: FAIL --supervisor: supervisor containment or overhead "
                 "check failed\n");
    return 1;
  }
  if (persist && !persist_ok) {
    std::fprintf(stderr,
                 "benchjson: FAIL --persist: warm restart diverged or exceeded the "
                 "recovery-time bound\n");
    return 1;
  }
  if (agent && !agent_ok) {
    std::fprintf(stderr,
                 "benchjson: FAIL --agent: warm-restart, containment, or "
                 "clean-trace gate failed\n");
    return 1;
  }
  if (governor && !governor_ok) {
    std::fprintf(stderr,
                 "benchjson: FAIL --governor: ladder or shedding gate failed\n");
    return 1;
  }
  if (store && !store_ok) {
    std::fprintf(stderr,
                 "benchjson: FAIL --store: boundedness, stale-generation, or "
                 "p99-overhead gate failed\n");
    return 1;
  }
  if (strict_alloc) {
    for (const Metric& m : metrics) {
      if (m.name == "function_callout_allocs_per_call" && m.value > 0.0) {
        std::fprintf(stderr,
                     "benchjson: FAIL --strict-alloc: %.4f allocations per steady-state "
                     "FUNCTION callout (expected 0)\n",
                     m.value);
        return 1;
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace osguard

int main(int argc, char** argv) { return osguard::Main(argc, argv); }
